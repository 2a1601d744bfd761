// Fleet-scale sharded learn driver: map-reduce over the mine pipeline.
//
// Learning over 10k+ configurations has the same memory problem the
// sharded check driver solves — the unsharded path lexes the whole
// fleet before mining starts. The sharded learn driver partitions the
// corpus into the same deterministic contiguous shards, and each shard
// streams: every configuration is processed, folded into the shard's
// mining.StatsAccumulator (statistics plus relational candidate
// evidence), and released, so peak heap is bounded by the
// configurations in flight, not fleet size. Accumulators merge in
// shard order — every aggregate is additive or max-normalized (see the
// merge laws in internal/mining/accumulator.go) — and the category
// miners run once over the merged evidence, producing a learned set
// byte-identical to an unsharded run at any shard count.
//
// The shard boundary is (sources, shared corpus state) in and a
// learnShardResult out, mirroring the check driver's boundary, so the
// worker-process backend slots in behind runLearnShard by serializing
// an exported AccumulatorState (see shardlearnproc.go) without
// touching the merge.
package core

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"concord/internal/diag"
	"concord/internal/faultinject"
	"concord/internal/mining"
	"concord/internal/telemetry"
)

// learnShardResult is what crosses the learn shard boundary back to
// the merge: the shard's mining accumulator plus its corpus tally.
// Nothing references the shard's lexed configurations.
type learnShardResult struct {
	acc   *mining.StatsAccumulator
	tally corpusTally
}

// learnShardedContext is the fleet-scale implementation behind
// LearnContext when Options sharding is active. Its learned set is
// byte-identical to the unsharded path: shards fold the same per-config
// statistics the unsharded passes compute, the accumulator merge is
// associative and order-normalized, and the miners run once over the
// merged evidence.
func (e *Engine) learnShardedContext(ctx context.Context, dc *diag.Collector, sources, meta []Source) (*LearnResult, error) {
	spProc := e.opts.Telemetry.StartSpan(string(telemetry.StageProcess))
	cr, err := e.newCorpusRun(dc, meta)
	if err != nil {
		spProc.EndCount(0)
		return nil, err
	}
	// One miner serves every shard: accumulators are shard-private, and
	// the shared intern table is concurrency-safe, exactly as it is
	// under the unsharded worker pool.
	m := e.newLearnMiner(dc, nil)
	// Process and mine interleave inside shards, so both stage spans
	// cover the sharded run's wall window. Progress totals are the full
	// corpus for both stages: configurations dropped before mining
	// still tick the mine counter, keeping (done, total) monotonic and
	// exact regardless of shard interleaving.
	spMine := e.opts.Telemetry.StartSpan(string(telemetry.StageMine))
	procProg := &progressCounter{e: e, stage: telemetry.StageProcess, total: len(sources)}
	mineProg := &progressCounter{e: e, stage: telemetry.StageMine, total: len(sources)}
	shards := makeShards(sources, e.opts.Shards)
	e.opts.Telemetry.Add("mine.shard_dispatches", int64(len(shards)))
	results := make([]*learnShardResult, len(shards))
	if e.opts.ShardBackend == ShardBackendProcess {
		err = e.runLearnShardsProcess(ctx, dc, meta, cr, m, shards, results, procProg, mineProg)
	} else {
		err = e.forEachCtx(ctx, dc, telemetry.StageMine, e.shardWorkers(), len(shards),
			func(i int) string { return shardLabel(shards[i]) },
			func(i int) error {
				sr, err := e.runLearnShard(ctx, dc, cr, m, shards[i], procProg, mineProg)
				if err != nil {
					return err
				}
				results[i] = sr
				return nil
			})
	}
	cr.emitCacheStats(e)
	spProc.EndCount(len(sources))
	if err != nil {
		spMine.EndCount(0)
		return nil, err
	}
	if e.opts.Strict {
		if jerr := diag.Join(dc.All()); jerr != nil {
			spMine.EndCount(0)
			return nil, fmt.Errorf("core: strict mode: %w", jerr)
		}
	}
	acc, pstats := e.mergeLearnShards(m, cr, shards, results)
	set, err := m.MineAccumulated(ctx, acc)
	spMine.EndCount(len(sources))
	if err != nil {
		return nil, err
	}
	return e.finishLearn(ctx, dc, set, pstats)
}

// runLearnShard streams one shard: each configuration is processed,
// folded into the shard's accumulator, and released before the next
// starts. The faultinject site "core.shard" (keyed by shard index)
// models a shard lost whole, exactly as in the check driver.
func (e *Engine) runLearnShard(ctx context.Context, dc *diag.Collector, cr *corpusRun, m *mining.Miner, sh shard, procProg, mineProg *progressCounter) (*learnShardResult, error) {
	faultinject.At("core.shard", strconv.Itoa(sh.index))
	sp := e.opts.Telemetry.StartSpan(fmt.Sprintf("dist.learn[%d]", sh.index))
	res := &learnShardResult{acc: m.NewStatsAccumulator(cr.interns)}
	for _, src := range sh.sources {
		if err := ctx.Err(); err != nil {
			sp.EndCount(0)
			return res, err
		}
		if err := e.learnShardStep(dc, cr, src, res, procProg, mineProg); err != nil {
			sp.EndCount(0)
			return res, err
		}
	}
	sp.EndCount(len(sh.sources))
	return res, nil
}

// learnShardStep runs one configuration through process and fold. Both
// phases contain faults at per-config granularity, matching the
// unsharded pipeline: processing panics are contained here, the fold's
// statistics and relational scans contain their own (see
// StatsAccumulator.Fold); strict surfaces any fault as an error that
// aborts the run.
func (e *Engine) learnShardStep(dc *diag.Collector, cr *corpusRun, src Source, res *learnShardResult, procProg, mineProg *progressCounter) error {
	cfg, _, err := e.shardProcess(dc, cr, src)
	procProg.tick()
	if err != nil {
		return err
	}
	if cfg == nil {
		res.tally.skipped++
		mineProg.tick() // never reaches the fold; keep the global total exact
		return nil
	}
	res.tally.add(cfg)
	err = res.acc.Fold(cfg)
	mineProg.tick()
	return err
}

// mergeLearnShards reduces per-shard accumulators and tallies in shard
// order, emitting the same corpus gauges the unsharded processContext
// sets. A shard lost to lenient containment contributes only its skip
// count. Merge wall time is recorded as mine.merge_ns.
func (e *Engine) mergeLearnShards(m *mining.Miner, cr *corpusRun, shards []shard, results []*learnShardResult) (*mining.StatsAccumulator, ProcessStats) {
	start := time.Now()
	acc := m.NewStatsAccumulator(cr.interns)
	var tally corpusTally
	for i, sr := range results {
		if sr == nil {
			tally.skipped += len(shards[i].sources)
			continue
		}
		tally.merge(&sr.tally)
		acc.Merge(sr.acc)
	}
	e.opts.Telemetry.Add("mine.merge_ns", time.Since(start).Nanoseconds())
	pstats := tally.stats()
	e.setCorpusGauges(pstats)
	return acc, pstats
}
