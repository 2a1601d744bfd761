// Process-per-shard execution backend (Options.ShardBackendProcess)
// for the check pipeline. Learn always streams in process (stream.go).
//
// The parent partitions the corpus into contiguous shards and
// dispatches each to a worker child process, which runs the engine's
// check stream (checkStream, stream.go) over its slice with one worker
// and ships back plain values: per config, its artifact bookkeeping
// and the artifact.CheckEntry record (violations, coverage counts,
// Unique value sites), plus the shard's corpus tally and any
// diagnostics. The parent turns those frames back into check rows and
// hands them to the same finishCheck the in-process stream feeds,
// which is the whole byte-identity argument:
//
//   - Shard partitioning is a pure function of (corpus length, N), and
//     shards are merged in order, so rows concatenate to corpus order.
//   - Nothing process-local crosses the wire — no intern IDs, no
//     compiled patterns — only strings and counts, which compare equal
//     regardless of which process produced them.
//   - The worker rebuilds its engine from the Job's options descriptor
//     (resolvedOptions) and the canonical contract-set JSON; the
//     process backend rejects the options that cannot round-trip
//     (func-valued extensions), so the worker's processing and check
//     fingerprints equal the parent's and warm artifact replay
//     addresses the same cache entries.
//
// Failure policy: transport failures (crashed worker, torn frame) are
// retried by the pool and then lose the shard whole — a diagnostic,
// its sources counted skipped; deterministic in-band failures (a
// contained panic inside the worker, a strict abort) are never
// retried.
package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"time"

	"concord/internal/artifact"
	"concord/internal/contracts"
	"concord/internal/diag"
	"concord/internal/shardrpc"
	"concord/internal/telemetry"
)

// --- parent side ---

// shard is one contiguous slice of the corpus, in input order.
type shard struct {
	index   int
	sources []Source
}

// makeShards partitions sources into at most n contiguous shards whose
// sizes differ by at most one, preserving corpus order. The partition
// is a pure function of (len(sources), n), so a run is reproducible
// and a re-run shards identically.
func makeShards(sources []Source, n int) []shard {
	if n > len(sources) {
		n = len(sources)
	}
	if n < 1 {
		n = 1
	}
	shards := make([]shard, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*len(sources)/n, (i+1)*len(sources)/n
		if lo == hi {
			continue
		}
		shards = append(shards, shard{index: i, sources: sources[lo:hi]})
	}
	return shards
}

// shardLabel names a shard in diagnostics: its index and the corpus
// range it covers.
func shardLabel(sh shard) string {
	return fmt.Sprintf("shard %d [%s..%s]", sh.index,
		sh.sources[0].Name, sh.sources[len(sh.sources)-1].Name)
}

// checkShardsProcess runs a check's corpus on the process backend: it
// builds one Job for the run and one Task per shard, executes them on a
// shardrpc worker pool, and returns the surviving configurations' rows
// in corpus order with the corpus tally. The tally merges the shards'
// tallies in shard order, a lost shard's sources counted skipped;
// procProg and checkProg tick once per source of every shard, returned
// or lost.
func (e *Engine) checkShardsProcess(ctx context.Context, dc *diag.Collector, set *contracts.Set, sources, meta []Source, cr *corpusRun, procProg, checkProg *progressCounter) ([]checkRow, corpusTally, error) {
	var tally corpusTally
	shards := makeShards(sources, e.opts.Shards)
	job, err := e.newShardJob(set, meta, cr)
	if err != nil {
		return nil, tally, err
	}
	command, err := e.shardWorkerCommand()
	if err != nil {
		return nil, tally, err
	}
	tasks := make([]shardrpc.Task, len(shards))
	for i, sh := range shards {
		t := shardrpc.Task{Shard: sh.index}
		for _, src := range sh.sources {
			t.Sources = append(t.Sources, shardrpc.NamedBlob{Name: src.Name, Text: src.Text})
		}
		tasks[i] = t
	}
	workers := e.opts.ShardWorkers
	if workers == 0 {
		workers = e.opts.Parallelism
	}
	wres, failures, err := shardrpc.Run(ctx, job, tasks, shardrpc.PoolOptions{
		Command:   command,
		Workers:   workers,
		FailFast:  e.opts.Strict,
		Telemetry: e.opts.Telemetry,
	})
	if err != nil {
		return nil, tally, err
	}
	// settle ticks both stage counters once per source of shard i:
	// progress is exact and global whether the shard's worker checked
	// every source in its slice or the shard was lost whole.
	settle := func(i int) {
		for range shards[i].sources {
			procProg.tick()
			checkProg.tick()
		}
	}
	// lose drops shard i whole: strict aborts, lenient records a
	// diagnostic and counts the shard's sources skipped.
	lose := func(i int, msg string, cause error) error {
		label := shardLabel(shards[i])
		if e.opts.Strict {
			return fmt.Errorf("core: %s stage aborted (strict): %s: %s: %w", telemetry.StageCheck, label, msg, cause)
		}
		dc.Add(diag.Diagnostic{
			Severity: diag.SevError,
			Stage:    string(telemetry.StageCheck),
			Source:   label,
			Message:  "shard lost: " + msg,
			Cause:    cause,
		})
		tally.skipped += len(shards[i].sources)
		settle(i)
		return nil
	}
	// Transport failures with the retry budget exhausted.
	for _, f := range failures {
		if err := lose(f.Task, fmt.Sprintf("worker failed after %d attempts", f.Attempts), f.Err); err != nil {
			return nil, tally, err
		}
	}
	perShard := make([][]checkRow, len(shards))
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
			return nil, tally, errors.New(wr.Err)
		}
		if wr.Lost {
			// Worker-contained whole-shard panic (lenient): diagnostics
			// are already merged; drop the shard's sources.
			e.opts.Telemetry.Add("diag.panics", 1)
			tally.skipped += len(shards[i].sources)
			settle(i)
			continue
		}
		rows, err := wireRows(wr)
		if err != nil {
			if err := lose(i, "malformed worker result", err); err != nil {
				return nil, tally, err
			}
			continue
		}
		perShard[i] = rows
		tally.merge(&corpusTally{configs: len(rows), skipped: wr.Skipped, lines: wr.Lines, patterns: wr.Patterns})
		settle(i)
	}
	return slices.Concat(perShard...), tally, nil
}

// newShardJob serializes the run for worker processes: the options
// descriptor, the contract set, the metadata corpus, and the artifact
// cache directory.
func (e *Engine) newShardJob(set *contracts.Set, meta []Source, cr *corpusRun) (*shardrpc.Job, error) {
	opts, err := json.Marshal(e.opts.resolved())
	if err != nil {
		return nil, fmt.Errorf("core: encode options for shard workers: %w", err)
	}
	job := &shardrpc.Job{Options: opts}
	if job.SetJSON, err = json.Marshal(set); err != nil {
		return nil, fmt.Errorf("core: serialize contract set: %w", err)
	}
	if cr.artOn {
		job.CacheDir = e.opts.Artifacts.BaseDir()
	}
	for _, m := range meta {
		job.Meta = append(job.Meta, shardrpc.NamedBlob{Name: m.Name, Text: m.Text})
	}
	return job, nil
}

// shardWorkerCommand resolves the worker argv: the explicit option,
// else the running executable's hidden shard-worker mode.
func (e *Engine) shardWorkerCommand() ([]string, error) {
	if len(e.opts.ShardWorkerCommand) > 0 {
		return e.opts.ShardWorkerCommand, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("core: resolve shard worker executable: %w", err)
	}
	return []string{exe, "shard-worker"}, nil
}

// wireRows rebuilds a check shard's rows from its worker's Result:
// each config's entry becomes its row's outcome, in shard order, and
// the content hashes re-parse.
func wireRows(wr *shardrpc.Result) ([]checkRow, error) {
	rows := make([]checkRow, 0, len(wr.Configs))
	for i := range wr.Configs {
		c := &wr.Configs[i]
		row := checkRow{
			name:          c.Name,
			art:           sourceArt{lexHit: c.LexHit},
			checkedConfig: checkedConfig{CheckEntry: c.Entry, hasCov: c.HasCoverage, hit: c.CheckHit},
		}
		if c.HashHex != "" {
			if err := row.art.hash.ParseHex(c.HashHex); err != nil {
				return nil, fmt.Errorf("core: bad content hash for %q: %w", c.Name, err)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// --- worker side ---

// RunShardWorker is the hidden `concord shard-worker` mode: it reads
// one Job frame from r, rebuilds the check pipeline, then serves one
// shard per Task frame until r reaches EOF (the parent closed the
// pipe). Results stream to w. Worker processes share the parent's
// artifact cache directory (atomic temp+rename stores are
// multi-process safe), so warm replay works unchanged; metadata
// diagnostics are dropped here because the parent already reported
// them once.
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
		if err := chaos.writeResult(w, t, wk.run(t)); err != nil {
			return fmt.Errorf("shard worker: write result: %w", err)
		}
	}
}

// shardWorker is one worker process's resident check pipeline: engine,
// corpus run, and compiled checker, built once per Job and reused for
// every Task.
type shardWorker struct {
	eng     *Engine
	dc      *diag.Collector
	cr      *corpusRun
	checker *contracts.Checker
	warm    bool
	checkFP artifact.Key
	// base is dc's length after metadata processing; per-shard result
	// frames carry only diagnostics recorded past this point (and past
	// prior shards), never the metadata ones the parent already has.
	base int
}

func newShardWorker(job *shardrpc.Job) (*shardWorker, error) {
	var ro resolvedOptions
	if err := json.Unmarshal(job.Options, &ro); err != nil {
		return nil, fmt.Errorf("decode options: %w", err)
	}
	opts := ro.options()
	if job.CacheDir != "" {
		cache, err := artifact.Open(job.CacheDir)
		if err != nil {
			return nil, fmt.Errorf("open artifact cache: %w", err)
		}
		opts.Artifacts = cache
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
	set := &contracts.Set{}
	if err := json.Unmarshal(job.SetJSON, set); err != nil {
		return nil, fmt.Errorf("decode contract set: %w", err)
	}
	wk.checker = eng.newChecker(set, wk.dc, wk.cr.interns)
	wk.warm = wk.cr.artOn && eng.opts.Incremental
	if wk.warm {
		wk.checkFP, wk.warm = eng.checkFingerprint(set, wk.cr.metaFP)
	}
	wk.base = wk.dc.Len()
	return wk, nil
}

// run checks one shard Task on one worker and ships each row as its
// wire ConfigResult, in shard order; the parent reports progress.
// Per-source faults are contained by the stream as in the parent;
// strict faults become in-band Err (never retried by the parent), and
// a lenient panic that escapes the stream loses the shard (Lost plus
// its diagnostic).
func (wk *shardWorker) run(t *shardrpc.Task) (res *shardrpc.Result) {
	sh := shard{index: t.Shard}
	for _, s := range t.Sources {
		sh.sources = append(sh.sources, Source{Name: s.Name, Text: s.Text})
	}
	res = &shardrpc.Result{Shard: t.Shard}
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
	rows, tally, err := wk.eng.checkStream(context.Background(), wk.dc, wk.cr, wk.checker, wk.warm, wk.checkFP, sh.sources, 1, nil, nil)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	for j := range rows {
		row := &rows[j]
		c := shardrpc.ConfigResult{
			Name:        row.name,
			LexHit:      row.art.lexHit,
			CheckHit:    row.hit,
			HasCoverage: row.hasCov,
			Entry:       row.CheckEntry,
		}
		if !row.art.hash.IsZero() {
			c.HashHex = row.art.hash.Hex()
		}
		res.Configs = append(res.Configs, c)
	}
	res.Skipped = tally.skipped
	res.Lines = tally.lines
	if len(tally.patterns) > 0 {
		res.Patterns = tally.patterns
	}
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

// maybeStall delays the first attempt of the configured shard, holding
// its worker mid-shard so a test can cancel the run while a child is
// busy and check that the drain kills and reaps it.
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
