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
// through the contracts.UniqueCombiner, which reproduces a
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
// per-configuration rows in shard (= corpus) order, the shard's corpus
// tally, and its combiner accumulator. Everything here is O(results);
// nothing references the shard's lexed configurations, which is what
// bounds a fleet-scale run's memory.
type shardResult struct {
	rows  []checkRow
	tally corpusTally
	acc   *contracts.UniqueAccumulator
}

// shardWorkers is the sharded drivers' pool width: ShardWorkers, or
// Parallelism when unset.
func (e *Engine) shardWorkers() int {
	if e.opts.ShardWorkers > 0 {
		return e.opts.ShardWorkers
	}
	return e.opts.Parallelism
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
		err = e.forEachCtx(ctx, dc, telemetry.StageCheck, e.shardWorkers(), len(shards),
			func(i int) string { return shardLabel(shards[i]) },
			func(i int) error {
				sr, err := e.runShard(ctx, dc, cr, checker, combiner, warm, checkFP, shards[i], procProg, checkProg)
				if err != nil {
					return err
				}
				results[i] = sr
				return nil
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
	res := &shardResult{acc: combiner.NewAccumulator()}
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
		res.tally.skipped++
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
	j := len(res.rows)
	res.rows = append(res.rows, checkRow{name: cfg.Name, art: sa})
	res.tally.add(cfg)
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
	r := e.checkOne(dc, checker, cfg, sa, warm, checkFP, true)
	res.rows[j].checkedConfig = r
	res.acc.AddSites(cfg.Name, r.contrib)
	return nil
}

// mergeShards concatenates per-shard rows and tallies in shard order
// (= corpus order) and reduces the accumulators into the cross-config
// unique violations. A shard lost to lenient containment contributes
// only its skip count.
func (e *Engine) mergeShards(combiner *contracts.UniqueCombiner, warm bool, checkFP artifact.Key, shards []shard, results []*shardResult) *CheckResult {
	var tally corpusTally
	var rows []checkRow
	accs := make([]*contracts.UniqueAccumulator, 0, len(results))
	for i, sr := range results {
		if sr == nil {
			tally.skipped += len(shards[i].sources)
			continue
		}
		tally.merge(&sr.tally)
		rows = append(rows, sr.rows...)
		accs = append(accs, sr.acc)
	}
	pstats := tally.stats()
	e.setCorpusGauges(pstats)
	return e.finishCheck(rows, combiner.Reduce(accs), pstats, warm, checkFP)
}
