// The streaming driver: one pass over the sources per pipeline.
//
// The checker is a per-configuration map with one cross-config reduce
// (Unique, §3.8), and the learner is a statistics fold (§3.4–§3.5), so
// neither needs the lexed corpus at once. A run from sources therefore
// takes each source through one fused step — process, then check it
// into its row or fold it into the calling worker's accumulator — and
// drops the configuration, so peak memory is bounded by the
// configurations in flight, not by corpus size. Workers claim sources
// in corpus order from the engine's one pool (workpool.Run, through
// forEachCtx) and keep private corpus tallies and accumulators, merged
// once the pool drains.
//
// Each pipeline has one front (checkSources, learnSources) that builds
// the run's shared state and streams the corpus. Learn always streams in
// this process and hands the merged accumulator to the miner and
// finishLearn. Check either streams in this process or dispatches the
// corpus to the process backend, whose workers run the same stream over
// their slices (shardproc.go); either way the front hands the rows to
// finishCheck.
package core

import (
	"context"
	"fmt"
	"time"

	"concord/internal/artifact"
	"concord/internal/contracts"
	"concord/internal/diag"
	"concord/internal/intern"
	"concord/internal/lexer"
	"concord/internal/mining"
	"concord/internal/telemetry"
)

// streamSources runs one fused step per source on forEachCtx with at
// most workers workers: the source is processed (ticking procProg), and
// a surviving configuration goes to step on the calling worker w; a
// source dropped by an input guard or a contained panic never reaches
// step. stageProg ticks once per source either way, after its step, so
// a stage's (done, total) stays exact over the whole corpus. A
// processing panic is contained per source under the process stage; a
// step contains its own faults. A failure (a strict abort, a step's
// error) stops the stream and is reported for the lowest failing
// source. The returned tally covers the corpus: every source either
// joined it or is counted skipped.
func (e *Engine) streamSources(ctx context.Context, dc *diag.Collector, cr *corpusRun, sources []Source, workers int, procProg, stageProg *progressCounter, step func(w, i int, cfg *lexer.Config, sa sourceArt) error) (corpusTally, error) {
	workers = max(min(workers, len(sources)), 1)
	tallies := make([]corpusTally, workers)
	err := e.forEachCtx(ctx, dc, telemetry.StageProcess, workers, len(sources),
		func(i int) string { return sources[i].Name },
		func(w, i int) error {
			defer stageProg.tick()
			cfg, sa := e.processOneSource(dc, cr, procProg, sources[i])
			if cfg == nil {
				return nil
			}
			tallies[w].add(cfg)
			return step(w, i, cfg, sa)
		})
	if err != nil {
		return corpusTally{}, err
	}
	for w := 1; w < workers; w++ {
		tallies[0].merge(&tallies[w])
	}
	tallies[0].skipped = len(sources) - tallies[0].configs
	return tallies[0], nil
}

// checkStream streams sources through the check step (checkStep) and
// returns the surviving configurations' rows in corpus order.
func (e *Engine) checkStream(ctx context.Context, dc *diag.Collector, cr *corpusRun, checker *contracts.Checker, warm bool, checkFP artifact.Key, sources []Source, workers int, procProg, checkProg *progressCounter) ([]checkRow, corpusTally, error) {
	slots := make([]*checkRow, len(sources))
	tally, err := e.streamSources(ctx, dc, cr, sources, workers, procProg, checkProg,
		func(_, i int, cfg *lexer.Config, sa sourceArt) error {
			row := &checkRow{name: cfg.Name, art: sa}
			slots[i] = row
			var err error
			row.checkedConfig, err = e.checkStep(dc, checker, cfg, sa, warm, checkFP)
			return err
		})
	if err != nil {
		return nil, corpusTally{}, err
	}
	rows := make([]checkRow, 0, tally.configs)
	for _, row := range slots {
		if row != nil {
			rows = append(rows, *row)
		}
	}
	return rows, tally, nil
}

// learnStream streams sources through the mining fold: each surviving
// configuration is folded into the calling worker's accumulator
// (StatsAccumulator.Fold contains its own faults), and the per-worker
// accumulators merge into one.
func (e *Engine) learnStream(ctx context.Context, dc *diag.Collector, cr *corpusRun, m *mining.Miner, sources []Source, workers int, procProg, mineProg *progressCounter) (*mining.StatsAccumulator, corpusTally, error) {
	accs := make([]*mining.StatsAccumulator, max(workers, 1))
	tally, err := e.streamSources(ctx, dc, cr, sources, workers, procProg, mineProg,
		func(w, _ int, cfg *lexer.Config, _ sourceArt) error {
			if accs[w] == nil {
				accs[w] = m.NewStatsAccumulator(cr.interns, len(sources))
			}
			return accs[w].Fold(cfg)
		})
	if err != nil {
		return nil, corpusTally{}, err
	}
	return e.mergeAccumulators(m, cr.interns, accs), tally, nil
}

// mergeAccumulators merges accumulators in slice order into the first
// one, skipping nil entries (an idle worker), and records
// the merge wall time as mine.merge_ns. Merging into an existing
// accumulator rather than a fresh one keeps the largest tables from
// being copied whole. The merge laws make the result independent of
// how the corpus was split.
func (e *Engine) mergeAccumulators(m *mining.Miner, interns *intern.Table, accs []*mining.StatsAccumulator) *mining.StatsAccumulator {
	start := time.Now()
	var acc *mining.StatsAccumulator
	for _, a := range accs {
		switch {
		case a == nil:
		case acc == nil:
			acc = a
		default:
			acc.Merge(a)
		}
	}
	if acc == nil {
		acc = m.NewStatsAccumulator(interns, 0)
	}
	e.opts.Telemetry.Add("mine.merge_ns", time.Since(start).Nanoseconds())
	return acc
}

// strictGate aborts a strict run that recorded any diagnostic; lenient
// runs return their diagnostics with the result instead.
func (e *Engine) strictGate(dc *diag.Collector) error {
	if !e.opts.Strict {
		return nil
	}
	if err := diag.Join(dc.All()); err != nil {
		return fmt.Errorf("core: strict mode: %w", err)
	}
	return nil
}

// checkSources is the check pipeline's front from sources, behind
// CheckContext and RegistryEntry.CheckContext: it builds the run's
// corpus state, checker and warm fingerprint, streams the corpus (or
// dispatches it to the process backend), applies the strict gate, and
// reduces the rows in finishCheck. checker, when non-nil, is a
// pre-compiled checker to reuse (the registry's compile-once path); nil
// compiles one against the run's intern table.
func (e *Engine) checkSources(ctx context.Context, dc *diag.Collector, set *contracts.Set, sources, meta []Source, checker *contracts.Checker) (*CheckResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err // compile nothing for a run cancelled before it starts
	}
	spProc := e.opts.Telemetry.StartSpan(string(telemetry.StageProcess))
	cr, err := e.newCorpusRun(dc, meta)
	if err != nil {
		spProc.EndCount(0)
		return nil, err
	}
	if checker == nil {
		checker = e.newChecker(set, dc, cr.interns)
	}
	warm := cr.artOn && e.opts.Incremental
	var checkFP artifact.Key
	if warm {
		checkFP, warm = e.checkFingerprint(set, cr.metaFP)
	}
	// Process and check interleave per source, so both stage spans
	// cover the run's wall window.
	spCheck := e.opts.Telemetry.StartSpan(string(telemetry.StageCheck))
	procProg := &progressCounter{e: e, stage: telemetry.StageProcess, total: len(sources)}
	checkProg := &progressCounter{e: e, stage: telemetry.StageCheck, total: len(sources)}
	var rows []checkRow
	var tally corpusTally
	if e.opts.shardingActive() {
		rows, tally, err = e.checkShardsProcess(ctx, dc, set, sources, meta, cr, procProg, checkProg)
	} else {
		rows, tally, err = e.checkStream(ctx, dc, cr, checker, warm, checkFP, sources, e.opts.Parallelism, procProg, checkProg)
	}
	cr.emitCacheStats(e)
	spProc.EndCount(len(sources))
	spCheck.EndCount(len(sources))
	if err == nil {
		err = e.strictGate(dc)
	}
	if err != nil {
		return nil, err
	}
	pstats := tally.stats()
	e.setCorpusGauges(pstats)
	return e.finishCheck(checker, rows, pstats, warm, checkFP), nil
}

// learnSources is the learn pipeline's front from sources, behind
// LearnContext: it builds the run's corpus state and miner, streams the
// corpus into per-worker accumulators, applies the strict gate, mines
// the merged evidence, and minimizes in finishLearn. The shard options
// are check-only: a learn never leaves this process.
func (e *Engine) learnSources(ctx context.Context, dc *diag.Collector, sources, meta []Source) (*LearnResult, error) {
	spProc := e.opts.Telemetry.StartSpan(string(telemetry.StageProcess))
	cr, err := e.newCorpusRun(dc, meta)
	if err != nil {
		spProc.EndCount(0)
		return nil, err
	}
	m := e.newLearnMiner(dc, nil)
	// Process and fold interleave per source, so the process, mine and
	// mine/stats spans all cover the stream's wall window.
	spMine := e.opts.Telemetry.StartSpan(string(telemetry.StageMine))
	spStats := e.opts.Telemetry.StartSpan("mine/stats")
	procProg := &progressCounter{e: e, stage: telemetry.StageProcess, total: len(sources)}
	mineProg := &progressCounter{e: e, stage: telemetry.StageMine, total: len(sources)}
	acc, tally, err := e.learnStream(ctx, dc, cr, m, sources, e.opts.Parallelism, procProg, mineProg)
	cr.emitCacheStats(e)
	spProc.EndCount(len(sources))
	spStats.EndCount(len(sources))
	if err == nil {
		err = e.strictGate(dc)
	}
	if err != nil {
		spMine.EndCount(0)
		return nil, err
	}
	pstats := tally.stats()
	e.setCorpusGauges(pstats)
	set, err := m.MineAccumulated(ctx, acc)
	spMine.EndCount(len(sources))
	if err != nil {
		return nil, err
	}
	return e.finishLearn(ctx, dc, set, pstats)
}
