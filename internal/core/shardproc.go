// Process-per-shard execution backend (Options.ShardBackendProcess).
//
// The wire boundary is exactly the in-process shard boundary: a worker
// process runs runShard over its corpus slice and ships back the plain
// values a shardResult holds — per-config violations, coverage counts,
// artifact bookkeeping, the serialized UniqueAccumulator entries, and
// any diagnostics. The parent rebuilds shardResults from those frames
// and hands them to the unchanged mergeShards, which is the whole
// byte-identity argument:
//
//   - Shard partitioning is a pure function of (corpus length, N), so
//     parent and worker agree on slice boundaries by construction.
//   - Nothing process-local crosses the wire — no intern IDs, no
//     compiled patterns — only strings and counts, which compare equal
//     regardless of which process produced them.
//   - The worker rebuilds its engine from the Job's serialized options
//     and the canonical contract-set JSON; the process backend rejects
//     the options that cannot round-trip (func-valued extensions), so
//     the worker's processing and check fingerprints equal the
//     parent's and warm artifact replay addresses the same cache
//     entries.
//   - The parent replays each worker's accumulator entries through
//     AddSites in shard order, so UniqueCombiner.Reduce sees exactly the
//     state an in-process fold would have produced.
//
// Failure policy mirrors shard.go: transport failures (crashed worker,
// torn frame) are retried by the pool and then fall into the PR 8
// shard-containment path; deterministic in-band failures (a contained
// panic inside the worker, a strict abort) are never retried.
package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"concord/internal/artifact"
	"concord/internal/contracts"
	"concord/internal/diag"
	"concord/internal/lexer"
	"concord/internal/mining"
	"concord/internal/shardrpc"
	"concord/internal/telemetry"
)

// distPolicy tunes the process backend's scheduler; the zero value is
// never used directly — a nil *distPolicy selects shardrpc defaults.
type distPolicy struct {
	maxRetries   int // pool re-dispatch budget per shard
	specMultiple float64
	specFloor    time.Duration
}

// --- parent side ---

// runShardsProcess is the process-backend twin of runShards: it builds
// one Job for the run, one Task per shard, and executes them on a
// shardrpc worker pool, converting each Result back into the
// *shardResult the unchanged mergeShards consumes.
func (e *Engine) runShardsProcess(ctx context.Context, dc *diag.Collector, set *contracts.Set, meta []Source, cr *corpusRun, combiner *contracts.UniqueCombiner, warm bool, checkFP artifact.Key, shards []shard, results []*shardResult, procProg, checkProg *progressCounter) error {
	job, err := e.buildShardJob(set, meta, cr)
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
	}
	if e.dist != nil {
		popts.MaxRetries = e.dist.maxRetries
		popts.SpeculativeMultiple = e.dist.specMultiple
		popts.SpeculativeFloor = e.dist.specFloor
	}
	wres, failures, err := shardrpc.Run(ctx, job, tasks, popts)
	if err != nil {
		return err
	}
	// Transport failures with the retry budget exhausted: the shard is
	// lost whole — strict aborts, lenient takes the PR 8 containment
	// path (diagnostic, nil result, sources counted skipped in merge).
	for _, f := range failures {
		label := shardLabel(shards[f.Task])
		if e.opts.Strict {
			return fmt.Errorf("core: %s stage aborted (strict): %s: worker failed after %d attempts: %w",
				telemetry.StageCheck, label, f.Attempts, f.Err)
		}
		dc.Add(diag.Diagnostic{
			Severity: diag.SevError,
			Stage:    string(telemetry.StageCheck),
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
			// Deterministic in-band abort: the worker runs in the same
			// strict mode as the parent, so this is a strict fault
			// re-raised across the boundary.
			return errors.New(wr.Err)
		}
		if wr.Lost {
			// Worker-contained whole-shard panic (lenient): diagnostics
			// are already merged; drop the shard as runShards would.
			e.opts.Telemetry.Add("diag.panics", 1)
			continue
		}
		sr, err := e.wireShardResult(wr, combiner)
		if err != nil {
			label := shardLabel(shards[i])
			if e.opts.Strict {
				return fmt.Errorf("core: %s stage aborted (strict): %s: %w", telemetry.StageCheck, label, err)
			}
			dc.Add(diag.Diagnostic{
				Severity: diag.SevError,
				Stage:    string(telemetry.StageCheck),
				Source:   label,
				Message:  "shard lost: malformed worker result",
				Cause:    err,
			})
			continue
		}
		results[i] = sr
		for j := 0; j < sr.tally.configs+sr.tally.skipped; j++ {
			procProg.tick()
			checkProg.tick()
		}
	}
	return nil
}

// buildShardJob serializes the run's check configuration for worker
// processes.
func (e *Engine) buildShardJob(set *contracts.Set, meta []Source, cr *corpusRun) (*shardrpc.Job, error) {
	job, err := e.newShardJobBase(meta, cr)
	if err != nil {
		return nil, err
	}
	job.SetJSON, err = json.Marshal(set)
	if err != nil {
		return nil, fmt.Errorf("core: serialize contract set: %w", err)
	}
	return job, nil
}

// newShardJobBase builds the processing-pipeline half of a Job, shared
// by the check and learn backends. Options that cannot cross a process
// boundary are rejected here as well as in Options.Validate, because
// service requests can select the backend after engine construction.
func (e *Engine) newShardJobBase(meta []Source, cr *corpusRun) (*shardrpc.Job, error) {
	if len(e.opts.ExtraTransforms) > 0 || len(e.opts.ExtraRelations) > 0 {
		return nil, fmt.Errorf("core: shard backend %q cannot serialize ExtraTransforms or ExtraRelations across the process boundary", ShardBackendProcess)
	}
	for _, t := range e.opts.UserTokens {
		if t.Parse != nil {
			return nil, fmt.Errorf("core: shard backend %q cannot serialize the custom Parse func of user token %q", ShardBackendProcess, t.Name)
		}
	}
	lim := e.opts.Limits.WithDefaults()
	job := &shardrpc.Job{
		ContextEmbedding: e.opts.ContextEmbedding,
		Strict:           e.opts.Strict,
		LexCacheSize:     e.opts.LexCacheSize,
		MaxFileSize:      lim.MaxFileSize,
		MaxLineLen:       lim.MaxLineLen,
		MaxDepth:         lim.MaxDepth,
		MaxLines:         lim.MaxLines,
	}
	if cr.artOn {
		job.CacheDir = e.opts.Artifacts.BaseDir()
		job.Incremental = e.opts.Incremental
	}
	for _, m := range meta {
		job.Meta = append(job.Meta, shardrpc.NamedBlob{Name: m.Name, Text: m.Text})
	}
	for _, t := range e.opts.UserTokens {
		job.UserTokens = append(job.UserTokens, shardrpc.TokenSpec{
			Name: t.Name, Pattern: t.Pattern,
			NoDigitBefore: t.NoDigitBefore, WordBoundary: t.WordBoundary,
		})
	}
	return job, nil
}

// shardWorkerCommand resolves the worker argv: explicit option, then
// the CONCORD_SHARD_WORKER_CMD environment variable, then the running
// executable's hidden shard-worker mode.
func (e *Engine) shardWorkerCommand() ([]string, error) {
	if len(e.opts.ShardWorkerCommand) > 0 {
		return e.opts.ShardWorkerCommand, nil
	}
	if env := os.Getenv("CONCORD_SHARD_WORKER_CMD"); env != "" {
		return strings.Fields(env), nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("core: resolve shard worker executable: %w", err)
	}
	return []string{exe, "shard-worker"}, nil
}

// wireShardResult rebuilds the in-process shardResult from a worker's
// Result frame: plain values copy over, the content hashes re-parse,
// and the accumulator entries replay through AddSites in shard order —
// the exact fold shardCheck performs locally.
func (e *Engine) wireShardResult(wr *shardrpc.Result, combiner *contracts.UniqueCombiner) (*shardResult, error) {
	sr := &shardResult{
		acc: combiner.NewAccumulator(),
		tally: corpusTally{
			configs:  len(wr.Configs),
			skipped:  wr.Skipped,
			lines:    wr.Lines,
			patterns: wr.Patterns,
		},
	}
	for i := range wr.Configs {
		c := &wr.Configs[i]
		row := checkRow{
			name:          c.Name,
			art:           sourceArt{lexHit: c.LexHit},
			checkedConfig: checkedConfig{violations: c.Violations, hit: c.CheckHit},
		}
		if c.Cov != nil {
			row.cov = &covCount{
				sourceLines: c.Cov.SourceLines,
				covered:     c.Cov.Covered,
				byCategory:  c.Cov.ByCategory,
			}
		}
		if c.HashHex != "" {
			if err := row.art.hash.ParseHex(c.HashHex); err != nil {
				return nil, fmt.Errorf("core: bad content hash for %q: %w", c.Name, err)
			}
		}
		sr.rows = append(sr.rows, row)
		sr.acc.AddSites(c.Name, c.Contrib)
	}
	return sr, nil
}

// --- worker side ---

// RunShardWorker is the hidden `concord shard-worker` mode: it reads
// one Job frame from r, rebuilds the check pipeline, then serves one
// shard per Task frame until r reaches EOF (the parent closed the
// pipe). Results stream to w. Worker processes share the parent's
// artifact cache directory (atomic temp+rename stores are multi-process
// safe), so warm replay works unchanged; metadata diagnostics are
// dropped here because the parent already reported them once.
func RunShardWorker(r io.Reader, w io.Writer) error {
	job, err := shardrpc.ReadJob(r)
	if err != nil {
		return fmt.Errorf("shard worker: read job: %w", err)
	}
	wk, err := newShardWorker(job)
	if err != nil {
		return fmt.Errorf("shard worker: %w", err)
	}
	chaos := loadWorkerChaos()
	for {
		t, err := shardrpc.ReadTask(r)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("shard worker: read task: %w", err)
		}
		chaos.maybeCrash(t)
		chaos.maybeStall(t)
		if job.Learn {
			res := wk.runLearn(t)
			if err := chaos.writeLearnResult(w, t, res); err != nil {
				return fmt.Errorf("shard worker: write learn result: %w", err)
			}
			continue
		}
		res := wk.run(t)
		if err := chaos.writeResult(w, t, res); err != nil {
			return fmt.Errorf("shard worker: write result: %w", err)
		}
	}
}

// shardWorker is one worker process's resident pipeline state: engine,
// compiled checker (check jobs) or miner (learn jobs), and corpus run,
// built once per Job and reused for every Task.
type shardWorker struct {
	eng      *Engine
	dc       *diag.Collector
	cr       *corpusRun
	checker  *contracts.Checker
	combiner *contracts.UniqueCombiner
	miner    *mining.Miner
	warm     bool
	checkFP  artifact.Key
	// base is dc's length after metadata processing; per-shard result
	// frames carry only diagnostics recorded past this point (and past
	// prior shards), never the metadata ones the parent already has.
	base int
}

func newShardWorker(job *shardrpc.Job) (*shardWorker, error) {
	opts := Options{
		Parallelism:      1, // a worker runs one shard at a time, sequentially
		ContextEmbedding: job.ContextEmbedding,
		Strict:           job.Strict,
		LexCacheSize:     job.LexCacheSize,
	}
	opts.Limits.MaxFileSize = job.MaxFileSize
	opts.Limits.MaxLineLen = job.MaxLineLen
	opts.Limits.MaxDepth = job.MaxDepth
	opts.Limits.MaxLines = job.MaxLines
	if job.Learn {
		// Learn parameters arrive resolved (the parent's New already
		// applied defaults), so the worker's miner is configured exactly
		// like the parent's.
		opts.Support = job.Support
		opts.Confidence = job.Confidence
		opts.ScoreThreshold = job.ScoreThreshold
		opts.MaxFanout = job.MaxFanout
		opts.ConstantLearning = job.ConstantLearning
		for _, c := range job.Categories {
			opts.Categories = append(opts.Categories, contracts.Category(c))
		}
	}
	for _, t := range job.UserTokens {
		opts.UserTokens = append(opts.UserTokens, lexer.TokenSpec{
			Name: t.Name, Pattern: t.Pattern,
			NoDigitBefore: t.NoDigitBefore, WordBoundary: t.WordBoundary,
		})
	}
	if job.CacheDir != "" {
		cache, err := artifact.Open(job.CacheDir)
		if err != nil {
			return nil, fmt.Errorf("open artifact cache: %w", err)
		}
		opts.Artifacts = cache
		opts.Incremental = job.Incremental
	}
	eng, err := New(opts)
	if err != nil {
		return nil, err
	}
	var meta []Source
	for _, m := range job.Meta {
		meta = append(meta, Source{Name: m.Name, Text: m.Text})
	}
	wk := &shardWorker{eng: eng, dc: diag.New()}
	wk.cr, err = eng.newCorpusRun(wk.dc, meta)
	if err != nil {
		return nil, err
	}
	if job.Learn {
		wk.miner = eng.newLearnMiner(wk.dc, nil)
	} else {
		set := &contracts.Set{}
		if err := json.Unmarshal(job.SetJSON, set); err != nil {
			return nil, fmt.Errorf("decode contract set: %w", err)
		}
		wk.checker = eng.newChecker(set, wk.dc, wk.cr.interns)
		wk.combiner = wk.checker.UniqueCombiner()
		wk.warm = wk.cr.artOn && eng.opts.Incremental
		if wk.warm {
			wk.checkFP, wk.warm = eng.checkFingerprint(set, wk.cr.metaFP)
		}
	}
	wk.base = wk.dc.Len()
	return wk, nil
}

// run executes one shard Task to a Result, containing faults the way
// runShards does: strict faults become in-band Err (never retried by
// the parent), a lenient whole-shard panic becomes Lost plus the same
// containment diagnostic the in-process driver would record.
func (wk *shardWorker) run(t *shardrpc.Task) (res *shardrpc.Result) {
	sh := shard{index: t.Shard}
	for _, s := range t.Sources {
		sh.sources = append(sh.sources, Source{Name: s.Name, Text: s.Text})
	}
	res = &shardrpc.Result{Shard: t.Shard}
	// Progress is parent-side; these counters only satisfy runShard's
	// signature (Progress is nil in a worker, so tick is a no-op).
	procProg := &progressCounter{e: wk.eng, stage: telemetry.StageProcess, total: len(sh.sources)}
	checkProg := &progressCounter{e: wk.eng, stage: telemetry.StageCheck, total: len(sh.sources)}
	defer func() {
		if r := recover(); r != nil {
			d := diag.FromPanic(string(telemetry.StageCheck), shardLabel(sh), r)
			if wk.eng.opts.Strict {
				*res = shardrpc.Result{Shard: t.Shard,
					Err:   fmt.Sprintf("core: %s stage aborted (strict): %v", telemetry.StageCheck, d.AsError()),
					Stack: d.Stack}
				return
			}
			*res = shardrpc.Result{Shard: t.Shard, Lost: true, Diags: []diag.Diagnostic{d}}
		}
		res.Diags = append(wk.takeDiags(), res.Diags...)
	}()
	sr, err := wk.eng.runShard(context.Background(), wk.dc, wk.cr, wk.checker, wk.combiner, wk.warm, wk.checkFP, sh, procProg, checkProg)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	wk.fillResult(res, sr)
	return res
}

// takeDiags drains the diagnostics recorded since the previous shard.
func (wk *shardWorker) takeDiags() []diag.Diagnostic {
	all := wk.dc.All()
	out := all[wk.base:]
	wk.base = len(all)
	if len(out) == 0 {
		return nil
	}
	return out
}

// fillResult flattens a shardResult onto the wire Result, entry by
// entry; the accumulator's fold order (== shard order) is preserved by
// construction because shardCheck appends rows and accumulator entries
// in lockstep.
func (wk *shardWorker) fillResult(res *shardrpc.Result, sr *shardResult) {
	res.Skipped = sr.tally.skipped
	res.Lines = sr.tally.lines
	if len(sr.tally.patterns) > 0 {
		res.Patterns = sr.tally.patterns
	}
	for j := range sr.rows {
		row := &sr.rows[j]
		c := shardrpc.ConfigResult{
			Name:       row.name,
			Violations: row.violations,
			CheckHit:   row.hit,
			LexHit:     row.art.lexHit,
		}
		if !row.art.hash.IsZero() {
			c.HashHex = row.art.hash.Hex()
		}
		if cc := row.cov; cc != nil {
			c.Cov = &shardrpc.Coverage{
				SourceLines: cc.sourceLines,
				Covered:     cc.covered,
				ByCategory:  cc.byCategory,
			}
		}
		name, sites := sr.acc.Entry(j)
		if name != row.name {
			// Impossible by construction; fail loudly rather than ship a
			// misaligned accumulator.
			panic(fmt.Sprintf("shard worker: accumulator entry %d is %q, want %q", j, name, row.name))
		}
		c.Contrib = sites
		res.Configs = append(res.Configs, c)
	}
}

// --- chaos hooks ---
//
// faultinject sites cannot reach across a process boundary, so the
// worker's fault hooks are environment-driven; the pool inherits the
// parent's environment, which is how chaos tests arm them. The Attempt
// counter in each Task lets a hook fire on the first attempt only, so
// "crash once, recover on retry" scenarios are deterministic. All
// hooks are inert unless the CONCORD_SHARDRPC_* variables are set.
type workerChaos struct {
	crashShard   int
	crashAlways  bool
	corruptShard int
	stallShard   int
	stall        time.Duration
}

func loadWorkerChaos() workerChaos {
	c := workerChaos{crashShard: -1, corruptShard: -1, stallShard: -1}
	env := func(key string) (int, bool) {
		v := os.Getenv(key)
		if v == "" {
			return 0, false
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return 0, false
		}
		return n, true
	}
	if n, ok := env("CONCORD_SHARDRPC_CRASH_SHARD"); ok {
		c.crashShard = n
	}
	c.crashAlways = os.Getenv("CONCORD_SHARDRPC_CRASH_MODE") == "always"
	if n, ok := env("CONCORD_SHARDRPC_CORRUPT_SHARD"); ok {
		c.corruptShard = n
	}
	if n, ok := env("CONCORD_SHARDRPC_STALL_SHARD"); ok {
		c.stallShard = n
	}
	c.stall = 3 * time.Second
	if n, ok := env("CONCORD_SHARDRPC_STALL_MS"); ok {
		c.stall = time.Duration(n) * time.Millisecond
	}
	return c
}

// maybeCrash SIGKILLs the worker mid-shard — after accepting the task,
// before any result — modeling a machine loss.
func (c workerChaos) maybeCrash(t *shardrpc.Task) {
	if t.Shard != c.crashShard || (!c.crashAlways && t.Attempt != 0) {
		return
	}
	if p, err := os.FindProcess(os.Getpid()); err == nil {
		p.Kill()
	}
	select {} // unreachable once the signal lands
}

// maybeStall delays the first attempt of the configured shard, turning
// it into a straggler the scheduler should speculate around.
func (c workerChaos) maybeStall(t *shardrpc.Task) {
	if t.Shard == c.stallShard && t.Attempt == 0 {
		time.Sleep(c.stall)
	}
}

// writeResult ships a Result, corrupting the frame's last payload byte
// on the configured shard's first attempt — a torn write the parent's
// checksum must catch and retry, never half-apply.
func (c workerChaos) writeResult(w io.Writer, t *shardrpc.Task, res *shardrpc.Result) error {
	if t.Shard != c.corruptShard || t.Attempt != 0 {
		return shardrpc.WriteResult(w, res)
	}
	frame := artifact.EncodeFrame(shardrpc.ResultMagic, shardrpc.SchemaVersion, shardrpc.EncodeResult(res))
	frame[len(frame)-1] ^= 0x40
	_, err := w.Write(frame)
	return err
}
