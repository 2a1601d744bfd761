// Process-per-shard learn backend (Options.ShardBackendProcess).
//
// The wire boundary is the learn shard boundary of shardlearn.go: a
// worker process streams its corpus slice through process+fold and
// ships back an exported mining.AccumulatorState plus the shard's
// corpus statistics. The parent imports each state against its own
// intern table (intern IDs never cross the boundary meaningfully — the
// codec carries a string dictionary and intern.Translator rebinds
// every reference, see internal/shardrpc/learnwire.go) and hands the
// rebuilt accumulators to the unchanged mergeLearnShards, so the
// learned set stays byte-identical to the in-process and unsharded
// paths. Failure policy is shardproc.go's: transport failures retry
// then fall into shard containment; in-band failures never retry.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"

	"concord/internal/artifact"
	"concord/internal/diag"
	"concord/internal/mining"
	"concord/internal/shardrpc"
	"concord/internal/telemetry"
)

// runLearnShardsProcess is the process-backend twin of the in-process
// learn shard pool: one Job for the run, one Task per shard, executed
// on a shardrpc worker pool via RunLearn, each CCSL frame converted
// back into the *learnShardResult mergeLearnShards consumes.
func (e *Engine) runLearnShardsProcess(ctx context.Context, dc *diag.Collector, meta []Source, cr *corpusRun, m *mining.Miner, shards []shard, results []*learnShardResult, procProg, mineProg *progressCounter) error {
	job, err := e.buildLearnShardJob(meta, cr)
	if err != nil {
		return err
	}
	command, err := e.shardWorkerCommand()
	if err != nil {
		return err
	}
	tasks := make([]shardrpc.Task, len(shards))
	for i, sh := range shards {
		t := shardrpc.Task{Shard: sh.index}
		for _, src := range sh.sources {
			t.Sources = append(t.Sources, shardrpc.NamedBlob{Name: src.Name, Text: src.Text})
		}
		tasks[i] = t
	}
	popts := shardrpc.PoolOptions{
		Command:    command,
		Workers:    e.shardWorkers(),
		MaxRetries: -1,
		FailFast:   e.opts.Strict,
		Telemetry:  e.opts.Telemetry,
		SpanPrefix: "dist.learn",
	}
	if e.dist != nil {
		popts.MaxRetries = e.dist.maxRetries
		popts.SpeculativeMultiple = e.dist.specMultiple
		popts.SpeculativeFloor = e.dist.specFloor
	}
	wres, failures, err := shardrpc.RunLearn(ctx, job, tasks, popts)
	if err != nil {
		return err
	}
	for _, f := range failures {
		label := shardLabel(shards[f.Task])
		if e.opts.Strict {
			return fmt.Errorf("core: %s stage aborted (strict): %s: worker failed after %d attempts: %w",
				telemetry.StageMine, label, f.Attempts, f.Err)
		}
		dc.Add(diag.Diagnostic{
			Severity: diag.SevError,
			Stage:    string(telemetry.StageMine),
			Source:   label,
			Message:  fmt.Sprintf("shard lost: worker failed after %d attempts", f.Attempts),
			Cause:    f.Err,
		})
	}
	for i, wr := range wres {
		if wr == nil {
			continue // failed above, or abandoned by a strict fail-fast
		}
		for _, d := range wr.Diags {
			dc.Add(d)
		}
		if wr.Err != "" {
			return errors.New(wr.Err)
		}
		if wr.Lost {
			// Worker-contained whole-shard panic (lenient): diagnostics
			// are already merged; drop the shard as the in-process pool
			// would.
			e.opts.Telemetry.Add("diag.panics", 1)
			continue
		}
		sr, err := e.wireLearnShardResult(wr, m, cr)
		if err != nil {
			label := shardLabel(shards[i])
			if e.opts.Strict {
				return fmt.Errorf("core: %s stage aborted (strict): %s: %w", telemetry.StageMine, label, err)
			}
			dc.Add(diag.Diagnostic{
				Severity: diag.SevError,
				Stage:    string(telemetry.StageMine),
				Source:   label,
				Message:  "shard lost: malformed worker result",
				Cause:    err,
			})
			continue
		}
		results[i] = sr
		// Progress is exact and global: the worker processed (folded or
		// skipped) every source in its slice, so tick both stage counters
		// once per source.
		for j := 0; j < sr.tally.configs+sr.tally.skipped; j++ {
			procProg.tick()
			mineProg.tick()
		}
	}
	return nil
}

// buildLearnShardJob serializes the run's learn configuration: the
// shared processing fields plus the resolved mining parameters. Learn
// jobs carry no contract set.
func (e *Engine) buildLearnShardJob(meta []Source, cr *corpusRun) (*shardrpc.Job, error) {
	job, err := e.newShardJobBase(meta, cr)
	if err != nil {
		return nil, err
	}
	job.Learn = true
	job.Support = e.opts.Support
	job.Confidence = e.opts.Confidence
	job.ScoreThreshold = e.opts.ScoreThreshold
	job.MaxFanout = e.opts.MaxFanout
	job.ConstantLearning = e.opts.ConstantLearning
	for _, c := range e.opts.Categories {
		job.Categories = append(job.Categories, string(c))
	}
	return job, nil
}

// wireLearnShardResult rebuilds the in-process learnShardResult from a
// worker's CCSL frame by importing the exported accumulator state
// against the parent's intern table and miner.
func (e *Engine) wireLearnShardResult(wr *shardrpc.LearnResult, m *mining.Miner, cr *corpusRun) (*learnShardResult, error) {
	if wr.State == nil {
		return nil, errors.New("core: worker learn result carries no accumulator state")
	}
	acc, err := m.ImportAccumulator(wr.State, cr.interns)
	if err != nil {
		return nil, err
	}
	return &learnShardResult{acc: acc, tally: corpusTally{
		configs:  acc.NConfigs(),
		skipped:  wr.Skipped,
		lines:    wr.Lines,
		patterns: wr.Patterns,
	}}, nil
}

// --- worker side ---

// runLearn executes one learn shard Task to a LearnResult, containing
// faults the way the in-process pool does: strict faults become
// in-band Err (never retried by the parent), a lenient whole-shard
// panic becomes Lost plus the containment diagnostic.
func (wk *shardWorker) runLearn(t *shardrpc.Task) (res *shardrpc.LearnResult) {
	sh := shard{index: t.Shard}
	for _, s := range t.Sources {
		sh.sources = append(sh.sources, Source{Name: s.Name, Text: s.Text})
	}
	res = &shardrpc.LearnResult{Shard: t.Shard}
	// Progress is parent-side; these counters only satisfy runLearnShard's
	// signature (Progress is nil in a worker, so tick is a no-op).
	procProg := &progressCounter{e: wk.eng, stage: telemetry.StageProcess, total: len(sh.sources)}
	mineProg := &progressCounter{e: wk.eng, stage: telemetry.StageMine, total: len(sh.sources)}
	defer func() {
		if r := recover(); r != nil {
			d := diag.FromPanic(string(telemetry.StageMine), shardLabel(sh), r)
			if wk.eng.opts.Strict {
				*res = shardrpc.LearnResult{Shard: t.Shard,
					Err:   fmt.Sprintf("core: %s stage aborted (strict): %v", telemetry.StageMine, d.AsError()),
					Stack: d.Stack}
				return
			}
			*res = shardrpc.LearnResult{Shard: t.Shard, Lost: true, Diags: []diag.Diagnostic{d}}
		}
		res.Diags = append(wk.takeDiags(), res.Diags...)
	}()
	sr, err := wk.eng.runLearnShard(context.Background(), wk.dc, wk.cr, wk.miner, sh, procProg, mineProg)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.State = sr.acc.Export()
	res.Skipped = sr.tally.skipped
	res.Lines = sr.tally.lines
	if len(sr.tally.patterns) > 0 {
		res.Patterns = sr.tally.patterns
	}
	return res
}

// writeLearnResult is workerChaos.writeResult for learn frames: the
// same torn-write corruption on the configured shard's first attempt,
// which the parent's checksum must catch and retry, never half-import.
func (c workerChaos) writeLearnResult(w io.Writer, t *shardrpc.Task, res *shardrpc.LearnResult) error {
	if t.Shard != c.corruptShard || t.Attempt != 0 {
		return shardrpc.WriteLearnResult(w, res)
	}
	frame := artifact.EncodeFrame(shardrpc.LearnResultMagic, shardrpc.SchemaVersion, shardrpc.EncodeLearnResult(res))
	frame[len(frame)-1] ^= 0x40
	_, err := w.Write(frame)
	return err
}
