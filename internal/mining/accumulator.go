package mining

// Map-reduce learning: a StatsAccumulator is the "map" side of the
// learn pipeline. Fold runs the per-config statistics and relational
// scans into accumulator-local state, so the lexed configuration can be
// released immediately afterwards. Accumulators then Merge and
// MineAccumulated runs the category miners and relational acceptance
// over the merged evidence. Every learn takes this path: the engine's
// learn from sources folds each configuration into its worker
// goroutine's accumulator as it streams, and MineContext over held
// configurations folds into one per worker (relationalPass).
//
// Merge laws. Every aggregate is either additive (counts: configCount,
// lineCount, holdConfigs, firstOccs, type/sequence/unique tallies) or
// max-normalized (relational score contributions, see score.AddInstance),
// so Merge is associative and commutative on the numbers. Display
// strings are first-wins, which is order-insensitive in effect: a
// display is a pure rewrite of its pattern (lexer.Line.Display carries
// the pattern with parameter names), so workers can only ever disagree
// about a display by not having seen the pattern at all. The learned
// set is therefore byte-identical at any split of the corpus and any
// merge association — the property test in accumulator_test.go pins this.
//
// Dead-candidate prune. The laws above hold for the candidates that
// can still be accepted; the rest are dropped during the fold. A
// candidate's confidence is hold/supp(p1), where supp(p1) is at most N,
// the corpus's configuration count the accumulator is built with. Its
// misses in one accumulator (configCount(p1) - holdConfigs) are a lower
// bound on its misses in any merge, so once (N-m)/N < C it fails
// confidence in every merge and its state is deleted (see dead). The
// prune is exact: the rounded division is monotone, so the rounded
// bound is never below the rounded confidence; a dead candidate has no
// score evidence left to lose, since it is never accepted; an accepted
// candidate was never dead in any accumulator, so its evidence is
// complete; and echo suppression only consults an identity form that
// reaches confidence, which a dead one cannot. The bound needs every
// hold to be counted in configCount, so a configuration whose
// statistics fold was dropped by containment skips its relational scan
// too. Which candidates die depends on the split, so the size of a
// merged table (mine.relation.candidates) does, but the learned set
// does not.

import (
	"math"

	"concord/internal/contracts"
	"concord/internal/faultinject"
	"concord/internal/intern"
	"concord/internal/lexer"
)

// StatsAccumulator holds one worker's mining evidence: the interned
// statistics the category miners consume plus the relational candidate
// table, keyed by IDs of the run-wide intern table. Not safe for
// concurrent use; workers fold into private accumulators and merge
// afterwards.
type StatsAccumulator struct {
	m     *Miner
	tab   *intern.Table
	sti   *statsI
	candI map[candKeyI]*candState
	// missBudget is the most misses a candidate can have and still
	// reach the miner's confidence in a corpus of the run's size.
	missBudget int

	scratch *scanScratch
}

// NewStatsAccumulator returns an empty accumulator over tab, the
// run-wide intern table every folded configuration must carry; tab
// must be non-nil. n is the number of configurations in the run (all
// accumulators merged together fold at most n); it bounds every
// pattern's support, which lets the fold drop candidates that can no
// longer reach confidence. n <= 0 disables that prune.
func (m *Miner) NewStatsAccumulator(tab *intern.Table, n int) *StatsAccumulator {
	return &StatsAccumulator{
		m:          m,
		tab:        tab,
		sti:        newStatsI(0, tab),
		candI:      make(map[candKeyI]*candState),
		missBudget: missBudget(n, m.opts.Confidence),
	}
}

// missBudget returns the largest m in [0, n] with (n-m)/n >= c,
// computed with the division acceptRelational uses, or -1 when even a
// candidate with no misses falls short of c; n <= 0 allows any number.
func missBudget(n int, c float64) int {
	if n <= 0 {
		return math.MaxInt
	}
	m := 0
	for m <= n && float64(n-m)/float64(n) >= c {
		m++
	}
	return m - 1
}

// dead reports whether a candidate with the given misses can never
// reach confidence, whatever the other accumulators hold.
func (a *StatsAccumulator) dead(misses int) bool { return misses > a.missBudget }

// configCount returns the number of folded configurations containing
// the pattern.
func (a *StatsAccumulator) configCount(pid int32) int {
	if ps := a.sti.patterns[pid]; ps != nil {
		return ps.configCount
	}
	return 0
}

// sweep deletes every dead candidate, including those whose misses grew
// in configurations where they were not seen.
func (a *StatsAccumulator) sweep() {
	for k, cs := range a.candI {
		if a.dead(a.configCount(k.p1) - cs.holdConfigs) {
			delete(a.candI, k)
		}
	}
}

// Candidates returns the size of the relational candidate table.
func (a *StatsAccumulator) Candidates() int { return len(a.candI) }

// Fold streams one configuration into the accumulator: the statistics
// fold followed by the relational scan, each under per-config
// containment and its fault-injection site. The configuration is not
// retained — callers may release it immediately, which is the whole
// point: a streaming learn's peak heap holds one config per worker in
// flight, not the corpus.
func (a *StatsAccumulator) Fold(cfg *lexer.Config) error {
	m := a.m
	a.sti.nConfigs++
	counted, err := m.statsOneConfig(cfg, a.sti)
	if err != nil || !counted || !m.opts.enabled(contracts.CatRelation) {
		return err
	}
	return m.contain(cfg.Name, func() {
		faultinject.At("mining.relational.config", cfg.Name)
		if a.scratch == nil {
			a.scratch = newScanScratch(len(m.transforms))
		}
		m.scanRelationalConfig(cfg, a.tab, a.scratch)
		a.foldScan()
	})
}

// Merge folds b into a. Both accumulators must share one intern table
// and be built by miners with the same registries and run size. Merge
// first sweeps both sides' dead candidates, then steals b's
// sub-structures; b must not be used afterwards. When merging workers in
// index order a sees lower-index evidence first, reproducing corpus
// order for the first-wins display fields — though the merge laws above
// make any order equivalent.
func (a *StatsAccumulator) Merge(b *StatsAccumulator) {
	if a.tab != b.tab {
		panic("mining: merging accumulators over different intern tables")
	}
	a.sweep()
	b.sweep()
	mergeStats(a.sti, b.sti)
	mergeCands(a.candI, b.candI)
}

func mergePatternStats(dst map[string]*patternStats, src map[string]*patternStats) {
	for k, ps := range src {
		if g := dst[k]; g != nil {
			g.configCount += ps.configCount
			g.lineCount += ps.lineCount
		} else {
			dst[k] = ps
		}
	}
}

func mergeTypeStats(dst, src map[string]*typeStats) {
	for ag, ts := range src {
		g := dst[ag]
		if g == nil {
			dst[ag] = ts
			continue
		}
		g.total += ts.total
		for len(g.perParam) < len(ts.perParam) {
			g.perParam = append(g.perParam, make(map[string]*typeUse))
		}
		for pi, uses := range ts.perParam {
			for typ, tu := range uses {
				if gu := g.perParam[pi][typ]; gu != nil {
					gu.lines += tu.lines
				} else {
					g.perParam[pi][typ] = tu
				}
			}
		}
	}
}

func mergeStats(dst, src *statsI) {
	dst.nConfigs += src.nConfigs
	for k, ps := range src.patterns {
		if g := dst.patterns[k]; g != nil {
			g.configCount += ps.configCount
			g.lineCount += ps.lineCount
		} else {
			dst.patterns[k] = ps
		}
	}
	for k, ps := range src.pairs {
		if g := dst.pairs[k]; g != nil {
			g.holdConfigs += ps.holdConfigs
		} else {
			dst.pairs[k] = ps
		}
	}
	for k, n := range src.firstOccs {
		dst.firstOccs[k] += n
	}
	mergeTypeStats(dst.types, src.types)
	// agOf is a fold-time memo; merged accumulators are mined, not
	// folded, so it is not carried over.
	for k, ss := range src.seqs {
		if g := dst.seqs[k]; g != nil {
			g.configsWith2 += ss.configsWith2
			g.configsSeq += ss.configsSeq
		} else {
			dst.seqs[k] = ss
		}
	}
	for k, us := range src.uniqs {
		g := dst.uniqs[k]
		if g == nil {
			dst.uniqs[k] = us
			continue
		}
		g.totalValues += us.totalValues
		for v, n := range us.valueCount {
			g.valueCount[v] += n
		}
	}
	mergePatternStats(dst.constants, src.constants)
}

func mergeCands(dst, src map[candKeyI]*candState) {
	for k, cs := range src {
		g := dst[k]
		if g == nil {
			dst[k] = cs
			continue
		}
		g.holdConfigs += cs.holdConfigs
		g.agg.Merge(&cs.agg)
	}
}
