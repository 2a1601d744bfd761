// Fleet-scale sharded check driver.
//
// One check run over 10k–100k configurations cannot afford to hold the
// whole lexed fleet in memory the way the unsharded driver does. The
// sharded driver partitions the corpus into deterministic contiguous
// shards, runs shards on a bounded worker pool, and streams inside
// each shard: every configuration is processed, checked, folded into
// the shard's cross-config accumulator, and then released — so peak
// memory is bounded by the configurations in flight, not by fleet
// size. Cross-configuration Unique contracts are merged afterwards
// through the contracts.Combiner protocol, which reproduces a
// sequential whole-corpus scan exactly.
//
// The shard boundary is deliberately narrow — a shard receives
// (sources, shared corpus state) and returns a shardResult of plain
// per-config values plus an accumulator — so a worker-process backend
// can later slot in behind runShard by serializing that boundary,
// without touching the merge.
package core

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"concord/internal/artifact"
	"concord/internal/contracts"
	"concord/internal/diag"
	"concord/internal/faultinject"
	"concord/internal/lexer"
	"concord/internal/telemetry"
)

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

// shardResult is what crosses the shard boundary back to the merge:
// per-configuration results in shard (= corpus) order plus the shard's
// combiner accumulator. Everything here is O(results); nothing
// references the shard's lexed configurations, which is what bounds a
// fleet-scale run's memory.
type shardResult struct {
	names      []string
	violations [][]contracts.Violation
	cov        []*covCount
	hits       []bool
	arts       []sourceArt
	acc        *contracts.UniqueAccumulator
	skipped    int
	lines      int
	patterns   map[string]int
}

// progressCounter reports monotonic global (done, total) progress for
// one stage across concurrently running shards: every shard ticks the
// shared counter, so Options.Progress observes the fleet-wide count
// rather than restarting per shard.
type progressCounter struct {
	e     *Engine
	stage telemetry.Stage
	total int
	done  int // guarded by e.progressMu
}

// tick counts one unit of work and reports the new count. Counting and
// reporting share the engine's progress lock: counting outside it let
// two shards report their counts out of order.
func (p *progressCounter) tick() {
	if p.e.opts.Progress == nil {
		return
	}
	p.e.progressMu.Lock()
	defer p.e.progressMu.Unlock()
	p.done++
	p.e.opts.Progress(p.stage, p.done, p.total)
}

// checkShardedContext is the fleet-scale implementation behind
// CheckContext when Options.Shards > 1. Its output is byte-identical
// to the unsharded path: shards are contiguous and merged in order, so
// per-config results concatenate to the corpus order, and the combiner
// reduction reproduces the sequential cross-config uniqueness scan.
// checker, when non-nil, is a pre-compiled checker to reuse (the
// registry's compile-once-serve-many path); nil builds one.
func (e *Engine) checkShardedContext(ctx context.Context, dc *diag.Collector, set *contracts.Set, sources, meta []Source, checker *contracts.Checker) (*CheckResult, error) {
	spProc := e.opts.Telemetry.StartSpan(string(telemetry.StageProcess))
	cr, err := e.newCorpusRun(dc, meta)
	if err != nil {
		spProc.EndCount(0)
		return nil, err
	}
	// One checker, compiled once against the shared intern table, serves
	// every shard: the compiled set is safe for concurrent use, exactly
	// as it is under the unsharded worker pool.
	if checker == nil {
		checker = e.newChecker(set, dc, cr.interns)
	}
	combiner := checker.UniqueCombiner()
	warm := cr.artOn && e.opts.Incremental
	var checkFP artifact.Key
	if warm {
		checkFP, warm = e.checkFingerprint(set, cr.metaFP)
	}
	// Process and check interleave inside shards, so both stage spans
	// cover the sharded run's wall window. Progress totals are the full
	// corpus for both stages: configurations dropped before checking
	// still tick the check counter, keeping (done, total) monotonic and
	// exact regardless of shard interleaving.
	spCheck := e.opts.Telemetry.StartSpan(string(telemetry.StageCheck))
	procProg := &progressCounter{e: e, stage: telemetry.StageProcess, total: len(sources)}
	checkProg := &progressCounter{e: e, stage: telemetry.StageCheck, total: len(sources)}
	shards := makeShards(sources, e.opts.Shards)
	results := make([]*shardResult, len(shards))
	if e.opts.ShardBackend == ShardBackendProcess {
		err = e.runShardsProcess(ctx, dc, set, meta, cr, combiner, warm, checkFP, shards, results, procProg, checkProg)
	} else {
		err = runShardPool(e, ctx, dc, telemetry.StageCheck, shards, results, func(sh shard) (*shardResult, error) {
			return e.runShard(ctx, dc, cr, checker, combiner, warm, checkFP, sh, procProg, checkProg)
		})
	}
	cr.emitCacheStats(e)
	spProc.EndCount(len(sources))
	spCheck.EndCount(len(sources))
	if err != nil {
		return nil, err
	}
	if e.opts.Strict {
		if jerr := diag.Join(dc.All()); jerr != nil {
			return nil, fmt.Errorf("core: strict mode: %w", jerr)
		}
	}
	return e.mergeShards(combiner, warm, checkFP, shards, results), nil
}

// runShardPool executes run over the shards on a pool of ShardWorkers
// goroutines (Parallelism when unset), with per-shard panic
// containment mirroring forEachCtx: lenient drops the shard with a
// diagnostic and continues, strict aborts the run on the first fault.
// It is generic over the shard result type so the check driver
// (*shardResult) and the learn driver (*learnShardResult) share one
// scheduler; stage labels containment diagnostics.
func runShardPool[R any](e *Engine, ctx context.Context, dc *diag.Collector, stage telemetry.Stage, shards []shard, results []*R, run func(shard) (*R, error)) error {
	workers := e.opts.ShardWorkers
	if workers <= 0 {
		workers = e.opts.Parallelism
	}
	if workers > len(shards) {
		workers = len(shards)
	}
	ictx, abort := context.WithCancel(ctx)
	defer abort()
	var failOnce sync.Once
	var failErr error
	fail := func(err error) {
		failOnce.Do(func() {
			failErr = err
			abort()
		})
	}
	call := func(i int) {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			d := diag.FromPanic(string(stage), shardLabel(shards[i]), r)
			if e.opts.Strict {
				fail(fmt.Errorf("core: %s stage aborted (strict): %w", stage, d.AsError()))
				return
			}
			dc.Add(d)
			e.opts.Telemetry.Add("diag.panics", 1)
			results[i] = nil
		}()
		res, err := run(shards[i])
		if err != nil {
			fail(err)
			return
		}
		results[i] = res
	}
	if workers <= 1 {
		for i := range shards {
			if ictx.Err() != nil {
				break
			}
			call(i)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					if ictx.Err() != nil {
						continue // drain without starting new shards
					}
					call(i)
				}
			}()
		}
	feed:
		for i := range shards {
			select {
			case next <- i:
			case <-ictx.Done():
				break feed
			}
		}
		close(next)
		wg.Wait()
	}
	if failErr != nil {
		return failErr
	}
	return ctx.Err()
}

// shardLabel names a shard in diagnostics: its index and the corpus
// range it covers.
func shardLabel(sh shard) string {
	return fmt.Sprintf("shard %d [%s..%s]", sh.index,
		sh.sources[0].Name, sh.sources[len(sh.sources)-1].Name)
}

// runShard streams one shard: each configuration is processed, checked,
// folded into the shard's accumulator, and released before the next
// starts. The faultinject site "core.shard" (keyed by shard index)
// models a shard lost whole — a crashed worker process, once that
// backend exists.
func (e *Engine) runShard(ctx context.Context, dc *diag.Collector, cr *corpusRun, checker *contracts.Checker, combiner *contracts.UniqueCombiner, warm bool, checkFP artifact.Key, sh shard, procProg, checkProg *progressCounter) (*shardResult, error) {
	faultinject.At("core.shard", strconv.Itoa(sh.index))
	res := &shardResult{
		acc:      combiner.NewAccumulator().(*contracts.UniqueAccumulator),
		patterns: make(map[string]int),
	}
	for _, src := range sh.sources {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		if err := e.shardStep(dc, cr, checker, warm, checkFP, src, res, procProg, checkProg); err != nil {
			return res, err
		}
	}
	return res, nil
}

// shardStep runs one configuration through process and check. Both
// phases contain panics at per-config granularity, matching the
// unsharded worker pool: lenient records a diagnostic and moves on,
// strict surfaces the fault as an error that aborts the run.
func (e *Engine) shardStep(dc *diag.Collector, cr *corpusRun, checker *contracts.Checker, warm bool, checkFP artifact.Key, src Source, res *shardResult, procProg, checkProg *progressCounter) error {
	cfg, sa, err := e.shardProcess(dc, cr, src)
	procProg.tick()
	if err != nil {
		return err
	}
	if cfg == nil {
		res.skipped++
		checkProg.tick() // never reaches checking; keep the global total exact
		return nil
	}
	err = e.shardCheck(dc, checker, warm, checkFP, cfg, sa, res)
	checkProg.tick()
	return err
}

// shardProcess is processOneSource under per-config containment.
func (e *Engine) shardProcess(dc *diag.Collector, cr *corpusRun, src Source) (cfg *lexer.Config, sa sourceArt, err error) {
	defer func() {
		if r := recover(); r != nil {
			d := diag.FromPanic(string(telemetry.StageProcess), src.Name, r)
			if e.opts.Strict {
				cfg, err = nil, fmt.Errorf("core: %s stage aborted (strict): %w", telemetry.StageProcess, d.AsError())
				return
			}
			dc.Add(d)
			e.opts.Telemetry.Add("diag.panics", 1)
			cfg = nil
		}
	}()
	cfg, sa = e.processOneSource(dc, cr, src)
	return cfg, sa, nil
}

// shardCheck is checkOne under per-config containment, appending the
// result to the shard in corpus order. Contributions are always
// extracted (checkOne's wantContrib) because the configuration is
// released right after this call — the accumulator is the only state
// that survives to the cross-config merge.
func (e *Engine) shardCheck(dc *diag.Collector, checker *contracts.Checker, warm bool, checkFP artifact.Key, cfg *lexer.Config, sa sourceArt, res *shardResult) (err error) {
	j := len(res.names)
	res.names = append(res.names, cfg.Name)
	res.violations = append(res.violations, nil)
	res.cov = append(res.cov, nil)
	res.hits = append(res.hits, false)
	res.arts = append(res.arts, sa)
	res.lines += cfg.SourceLines
	addPatternStats(res.patterns, cfg)
	defer func() {
		if r := recover(); r != nil {
			d := diag.FromPanic(string(telemetry.StageCheck), cfg.Name, r)
			if e.opts.Strict {
				err = fmt.Errorf("core: %s stage aborted (strict): %w", telemetry.StageCheck, d.AsError())
				return
			}
			dc.Add(d)
			e.opts.Telemetry.Add("diag.panics", 1)
			// The check panicked after the config joined the corpus;
			// recover its contribution so cross-config uniqueness still
			// scans every surviving configuration, as the unsharded
			// driver does.
			res.acc.AddSites(cfg.Name, checker.UniqueContributions(cfg))
		}
	}()
	var cache *artifact.Cache
	var key artifact.Key
	if warm && !sa.hash.IsZero() {
		cache = e.opts.Artifacts
		key = checkKey(sa.hash, checkFP, cfg.Name)
	}
	r := e.checkOne(dc, checker, cfg, cache, sa.clean, key, true)
	res.violations[j] = r.violations
	res.cov[j] = r.cov
	res.hits[j] = r.hit
	res.acc.AddSites(cfg.Name, r.contrib)
	return nil
}

// mergeShards concatenates per-shard results in shard order (= corpus
// order) and reduces the accumulators into the cross-config unique
// violations. A shard lost to lenient containment contributes only its
// skip count.
func (e *Engine) mergeShards(combiner *contracts.UniqueCombiner, warm bool, checkFP artifact.Key, shards []shard, results []*shardResult) *CheckResult {
	res := &CheckResult{}
	patterns := make(map[string]int)
	accs := make([]contracts.Accumulator, 0, len(results))
	for i, sr := range results {
		if sr == nil {
			res.Stats.Skipped += len(shards[i].sources)
			continue
		}
		res.Stats.Configs += len(sr.names)
		res.Stats.Skipped += sr.skipped
		res.Stats.Lines += sr.lines
		for p, n := range sr.patterns {
			if v, ok := patterns[p]; !ok || n > v {
				patterns[p] = n
			}
		}
		for j := range sr.names {
			res.Violations = append(res.Violations, sr.violations[j]...)
		}
		accs = append(accs, sr.acc)
	}
	res.Stats.Patterns = len(patterns)
	for _, n := range patterns {
		res.Stats.Parameters += n
	}
	res.Violations = append(res.Violations, combiner.Reduce(accs)...)
	sortViolations(res.Violations)

	res.Coverage.ByCategory = make(map[contracts.Category]int)
	for _, sr := range results {
		if sr == nil {
			continue
		}
		for j, cc := range sr.cov {
			if cc == nil {
				continue // this config's check panicked and was contained
			}
			out := ConfigCoverage{
				Name:        sr.names[j],
				SourceLines: cc.sourceLines,
				Covered:     cc.covered,
				ByCategory:  make(map[contracts.Category]int, len(cc.byCategory)),
			}
			for cat, n := range cc.byCategory {
				out.ByCategory[cat] = n
				res.Coverage.ByCategory[cat] += n
			}
			res.Coverage.TotalLines += cc.sourceLines
			res.Coverage.CoveredLines += cc.covered
			res.Coverage.PerConfig = append(res.Coverage.PerConfig, out)
		}
	}
	e.opts.Telemetry.SetGauge("corpus.configs", float64(res.Stats.Configs))
	e.opts.Telemetry.SetGauge("corpus.skipped", float64(res.Stats.Skipped))
	e.opts.Telemetry.SetGauge("corpus.lines", float64(res.Stats.Lines))
	e.opts.Telemetry.SetGauge("corpus.patterns", float64(res.Stats.Patterns))
	if warm {
		m := &artifact.Manifest{
			Schema:     artifact.SchemaVersion,
			OptionsFP:  e.procFP.Hex(),
			ContractFP: checkFP.Hex(),
		}
		for _, sr := range results {
			if sr == nil {
				continue
			}
			for j := range sr.names {
				m.Configs = append(m.Configs, artifact.ManifestEntry{
					Name:        sr.names[j],
					ContentHash: sr.arts[j].hash.Hex(),
					LexHit:      sr.arts[j].lexHit,
					CheckHit:    sr.hits[j],
				})
			}
		}
		if merr := e.opts.Artifacts.WriteManifest(m); merr != nil {
			e.opts.Telemetry.Add("artifact.store_errors", 1)
		}
	}
	return res
}
