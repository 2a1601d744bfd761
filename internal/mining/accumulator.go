package mining

// Map-reduce learning: a StatsAccumulator is the "map" side of the
// learn pipeline. Fold runs the per-config statistics and relational
// scans into accumulator-local state, so the lexed configuration can be
// released immediately afterwards. Accumulators then Merge and
// MineAccumulated runs the category miners and relational acceptance
// over the merged evidence. Every learn takes this path: the engine's
// learn from sources folds each configuration into its worker's
// accumulator as it streams (one per worker process on the process
// backend), and MineContext over held configurations folds into one
// per worker (relationalPass).
//
// Merge laws. Every aggregate is either additive (counts: configCount,
// lineCount, holdConfigs, firstOccs, type/sequence/unique tallies) or
// max-normalized (relational score contributions, see score.AddInstance),
// so Merge is associative and commutative on the numbers. Display
// strings are first-wins, which is order-insensitive in effect: a
// display is a pure rewrite of its pattern (lexer.Line.Display carries
// the pattern with parameter names), so shards can only ever disagree
// about a display by not having seen the pattern at all. The learned
// set is therefore byte-identical at any shard count and any merge
// association — the property test in accumulator_test.go pins this.

import (
	"fmt"
	"sort"

	"concord/internal/contracts"
	"concord/internal/faultinject"
	"concord/internal/intern"
	"concord/internal/lexer"
	"concord/internal/relations"
	"concord/internal/score"
)

// StatsAccumulator holds one shard's mining evidence: the interned
// statistics the category miners consume plus the relational candidate
// table, keyed by IDs of the run-wide intern table. Not safe for
// concurrent use; shards fold into private accumulators and merge
// afterwards.
type StatsAccumulator struct {
	m     *Miner
	tab   *intern.Table
	sti   *statsI
	candI map[candKeyI]*candState

	scratch *scanScratch
}

// NewStatsAccumulator returns an empty accumulator over tab, the
// run-wide intern table every folded configuration must carry; tab
// must be non-nil.
func (m *Miner) NewStatsAccumulator(tab *intern.Table) *StatsAccumulator {
	return &StatsAccumulator{
		m:     m,
		tab:   tab,
		sti:   newStatsI(0, tab),
		candI: make(map[candKeyI]*candState),
	}
}

// NConfigs returns the number of configurations folded (and, after
// merges, the merged total) — the denominator the miners divide by.
func (a *StatsAccumulator) NConfigs() int { return a.sti.nConfigs }

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
	if err := m.statsOneConfig(cfg, a.sti); err != nil {
		return err
	}
	if !m.opts.enabled(contracts.CatRelation) {
		return nil
	}
	return m.contain(cfg.Name, func() {
		faultinject.At("mining.relational.config", cfg.Name)
		if a.scratch == nil {
			a.scratch = newScanScratch(len(m.transforms))
		}
		m.scanRelationalConfig(cfg, a.tab, a.scratch)
		m.foldScan(a.scratch, a.candI)
	})
}

// Merge folds b into a. Both accumulators must share one intern table
// and be built by miners with the same registries. Merge steals b's
// sub-structures; b must not be used afterwards. When merging shards in
// index order a sees lower-index evidence first, reproducing corpus
// order for the first-wins display fields — though the merge laws above
// make any order equivalent.
func (a *StatsAccumulator) Merge(b *StatsAccumulator) {
	if a.tab != b.tab {
		panic("mining: merging accumulators over different intern tables")
	}
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
		g.agg.Merge(cs.agg)
	}
}

// AccumulatorState is the portable plain-data form of a
// StatsAccumulator, the payload of a shardrpc learn result frame. All
// strings live in the Strings dictionary and are referenced by 1-based
// StrID — worker-process intern IDs never cross the wire, the parent
// rebinds every reference through an intern.Translator on import.
// Export emits records in a canonical sort order with dictionary IDs
// assigned in first-reference order, so equal accumulators serialize to
// equal bytes regardless of map iteration.
type AccumulatorState struct {
	NConfigs  int
	Strings   []string
	Patterns  []AccPattern
	Pairs     []AccPair
	FirstOccs []AccFirstOcc
	Types     []AccType
	Seqs      []AccSeq
	Uniqs     []AccUniq
	Constants []AccConstant
	Cands     []AccCand
}

// StrID references AccumulatorState.Strings[id-1]; 0 is invalid.
type StrID = int32

// AccPattern is one pattern's global statistics.
type AccPattern struct {
	Pattern, Display       StrID
	ConfigCount, LineCount int
}

// AccPair is one observed successor pair.
type AccPair struct {
	First, Second               StrID
	DisplayFirst, DisplaySecond StrID
	HoldConfigs                 int
}

// AccFirstOcc counts configs containing a pattern (ordering support).
type AccFirstOcc struct {
	Pattern StrID
	Configs int
}

// AccTypeUse counts lines using one type at one parameter position.
type AccTypeUse struct {
	Type  StrID
	Lines int
}

// AccTypeParam is one parameter position's type uses.
type AccTypeParam struct {
	Uses []AccTypeUse
}

// AccType is one type-agnostic pattern's evidence.
type AccType struct {
	Agnostic StrID
	Total    int
	Params   []AccTypeParam
}

// AccSeq is one numeric parameter's equidistance evidence.
type AccSeq struct {
	Pattern                  StrID
	Idx                      int
	Display                  StrID
	ConfigsWith2, ConfigsSeq int
}

// AccValueCount counts one value's global occurrences.
type AccValueCount struct {
	Key   StrID
	Count int
}

// AccUniq is one parameter's uniqueness evidence.
type AccUniq struct {
	Pattern     StrID
	Idx         int
	Display     StrID
	TotalValues int
	Values      []AccValueCount
}

// AccConstant is one exact-text constant's statistics.
type AccConstant struct {
	Text        StrID
	ConfigCount int
}

// AccScore is one relational score contribution.
type AccScore struct {
	Key   StrID
	Score float64
}

// AccCand is one relational candidate's cross-config evidence.
// Transforms and the relation cross the wire by name, not registry
// index: names are self-describing, so a registry mismatch between
// parent and worker surfaces as an import error instead of silently
// rebinding evidence to the wrong transform.
type AccCand struct {
	P1                 StrID
	I1                 int
	T1                 StrID
	Rel                StrID
	P2                 StrID
	I2                 int
	T2                 StrID
	Display1, Display2 StrID
	HoldConfigs        int
	Scores             []AccScore
}

// stateBuilder assigns dictionary IDs in first-reference order.
type stateBuilder struct {
	ids     map[string]StrID
	strings []string
}

func (b *stateBuilder) sid(s string) StrID {
	if id, ok := b.ids[s]; ok {
		return id
	}
	id := StrID(len(b.strings) + 1)
	b.ids[s] = id
	b.strings = append(b.strings, s)
	return id
}

// Export converts the accumulator to its portable form. The stats view
// is finalized to string keys first, then every table is emitted in
// canonical order.
func (a *StatsAccumulator) Export() *AccumulatorState {
	st := a.sti.finalize()
	b := &stateBuilder{ids: make(map[string]StrID)}
	out := &AccumulatorState{NConfigs: st.nConfigs}

	for _, k := range sortedKeys(st.patterns) {
		ps := st.patterns[k]
		out.Patterns = append(out.Patterns, AccPattern{
			Pattern: b.sid(k), Display: b.sid(ps.display),
			ConfigCount: ps.configCount, LineCount: ps.lineCount,
		})
	}
	pairKeys := make([][2]string, 0, len(st.pairs))
	for k := range st.pairs {
		pairKeys = append(pairKeys, k)
	}
	sort.Slice(pairKeys, func(i, j int) bool {
		if pairKeys[i][0] != pairKeys[j][0] {
			return pairKeys[i][0] < pairKeys[j][0]
		}
		return pairKeys[i][1] < pairKeys[j][1]
	})
	for _, k := range pairKeys {
		ps := st.pairs[k]
		out.Pairs = append(out.Pairs, AccPair{
			First: b.sid(k[0]), Second: b.sid(k[1]),
			DisplayFirst: b.sid(ps.displayFirst), DisplaySecond: b.sid(ps.displaySecond),
			HoldConfigs: ps.holdConfigs,
		})
	}
	for _, k := range sortedKeys(st.firstOccs) {
		out.FirstOccs = append(out.FirstOccs, AccFirstOcc{Pattern: b.sid(k), Configs: st.firstOccs[k]})
	}
	for _, ag := range sortedKeys(st.types) {
		ts := st.types[ag]
		at := AccType{Agnostic: b.sid(ag), Total: ts.total}
		for _, uses := range ts.perParam {
			ap := AccTypeParam{}
			for _, typ := range sortedKeys(uses) {
				ap.Uses = append(ap.Uses, AccTypeUse{Type: b.sid(typ), Lines: uses[typ].lines})
			}
			at.Params = append(at.Params, ap)
		}
		out.Types = append(out.Types, at)
	}
	for _, k := range sortedKeys(st.seqs) {
		ss, pp := st.seqs[k], st.seqMeta[k]
		out.Seqs = append(out.Seqs, AccSeq{
			Pattern: b.sid(pp.pattern), Idx: pp.idx, Display: b.sid(ss.display),
			ConfigsWith2: ss.configsWith2, ConfigsSeq: ss.configsSeq,
		})
	}
	for _, k := range sortedKeys(st.uniqs) {
		us, pp := st.uniqs[k], st.uniqMeta[k]
		au := AccUniq{
			Pattern: b.sid(pp.pattern), Idx: pp.idx, Display: b.sid(us.display),
			TotalValues: us.totalValues,
		}
		for _, v := range sortedKeys(us.valueCount) {
			au.Values = append(au.Values, AccValueCount{Key: b.sid(v), Count: us.valueCount[v]})
		}
		out.Uniqs = append(out.Uniqs, au)
	}
	for _, text := range sortedKeys(st.constants) {
		out.Constants = append(out.Constants, AccConstant{Text: b.sid(text), ConfigCount: st.constants[text].configCount})
	}
	out.Cands = a.exportCands(b)
	out.Strings = b.strings
	return out
}

// exportCands materializes the candidate table with string-form keys in
// canonical order.
func (a *StatsAccumulator) exportCands(b *stateBuilder) []AccCand {
	type flat struct {
		k  candKey
		cs *candState
	}
	m := a.m
	cands := make([]flat, 0, len(a.candI))
	for k, cs := range a.candI {
		cands = append(cands, flat{candKey{
			p1: a.tab.String(k.p1), i1: int(k.i1), t1: m.transforms[k.t1].Name,
			rel: m.rels[k.rel],
			p2:  a.tab.String(k.p2), i2: int(k.i2), t2: m.transforms[k.t2].Name,
		}, cs})
	}
	sort.Slice(cands, func(i, j int) bool {
		x, y := cands[i].k, cands[j].k
		switch {
		case x.p1 != y.p1:
			return x.p1 < y.p1
		case x.i1 != y.i1:
			return x.i1 < y.i1
		case x.t1 != y.t1:
			return x.t1 < y.t1
		case x.rel != y.rel:
			return x.rel < y.rel
		case x.p2 != y.p2:
			return x.p2 < y.p2
		case x.i2 != y.i2:
			return x.i2 < y.i2
		default:
			return x.t2 < y.t2
		}
	})
	out := make([]AccCand, 0, len(cands))
	for _, c := range cands {
		ac := AccCand{
			P1: b.sid(c.k.p1), I1: c.k.i1, T1: b.sid(c.k.t1),
			Rel: b.sid(string(c.k.rel)),
			P2:  b.sid(c.k.p2), I2: c.k.i2, T2: b.sid(c.k.t2),
			Display1: b.sid(c.cs.display1), Display2: b.sid(c.cs.display2),
			HoldConfigs: c.cs.holdConfigs,
		}
		for _, e := range c.cs.agg.Entries() {
			ac.Scores = append(ac.Scores, AccScore{Key: b.sid(e.Key), Score: e.Score})
		}
		out = append(out, ac)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ImportAccumulator rebinds a wire-form accumulator onto this miner's
// registries and the run's intern table. Every dictionary reference is
// range-checked and every transform/relation name resolved against the
// local registries — malformed or registry-skewed state returns an
// error, never a panic and never a silently partial accumulator.
func (m *Miner) ImportAccumulator(state *AccumulatorState, tab *intern.Table) (*StatsAccumulator, error) {
	a := m.NewStatsAccumulator(tab)
	sti := a.sti
	tr := intern.NewTranslator(tab, state.Strings)
	sti.nConfigs = state.NConfigs

	str := tr.String
	for _, p := range state.Patterns {
		pid, err := tr.ID(p.Pattern)
		if err != nil {
			return nil, err
		}
		display, err := str(p.Display)
		if err != nil {
			return nil, err
		}
		sti.patterns[pid] = &patternStats{display: display, configCount: p.ConfigCount, lineCount: p.LineCount}
	}
	for _, p := range state.Pairs {
		id1, err := tr.ID(p.First)
		if err != nil {
			return nil, err
		}
		id2, err := tr.ID(p.Second)
		if err != nil {
			return nil, err
		}
		d1, err := str(p.DisplayFirst)
		if err != nil {
			return nil, err
		}
		d2, err := str(p.DisplaySecond)
		if err != nil {
			return nil, err
		}
		sti.pairs[[2]int32{id1, id2}] = &pairStats{displayFirst: d1, displaySecond: d2, holdConfigs: p.HoldConfigs}
	}
	for _, f := range state.FirstOccs {
		pid, err := tr.ID(f.Pattern)
		if err != nil {
			return nil, err
		}
		sti.firstOccs[pid] = f.Configs
	}
	for _, at := range state.Types {
		ag, err := str(at.Agnostic)
		if err != nil {
			return nil, err
		}
		ts := &typeStats{total: at.Total}
		for _, ap := range at.Params {
			uses := make(map[string]*typeUse, len(ap.Uses))
			for _, u := range ap.Uses {
				typ, err := str(u.Type)
				if err != nil {
					return nil, err
				}
				uses[typ] = &typeUse{lines: u.Lines}
			}
			ts.perParam = append(ts.perParam, uses)
		}
		sti.types[ag] = ts
	}
	for _, s := range state.Seqs {
		pid, err := tr.ID(s.Pattern)
		if err != nil {
			return nil, err
		}
		display, err := str(s.Display)
		if err != nil {
			return nil, err
		}
		sti.seqs[key2i(pid, s.Idx)] = &seqStats{display: display, configsWith2: s.ConfigsWith2, configsSeq: s.ConfigsSeq}
	}
	for _, u := range state.Uniqs {
		pid, err := tr.ID(u.Pattern)
		if err != nil {
			return nil, err
		}
		display, err := str(u.Display)
		if err != nil {
			return nil, err
		}
		us := &uniqStats{display: display, totalValues: u.TotalValues, valueCount: make(map[string]int, len(u.Values))}
		for _, v := range u.Values {
			key, err := str(v.Key)
			if err != nil {
				return nil, err
			}
			us.valueCount[key] = v.Count
		}
		sti.uniqs[key2i(pid, u.Idx)] = us
	}
	for _, c := range state.Constants {
		text, err := str(c.Text)
		if err != nil {
			return nil, err
		}
		sti.constants[text] = &patternStats{display: text, configCount: c.ConfigCount}
	}
	if err := m.importCands(a, state, tr); err != nil {
		return nil, err
	}
	return a, nil
}

func (m *Miner) importCands(a *StatsAccumulator, state *AccumulatorState, tr *intern.Translator) error {
	transformIdx := make(map[string]int32, len(m.transforms))
	for ti := range m.transforms {
		transformIdx[m.transforms[ti].Name] = int32(ti)
	}
	relIdx := make(map[relations.Rel]int8, len(m.rels))
	for ri := range m.rels {
		relIdx[m.rels[ri]] = int8(ri)
	}
	for _, c := range state.Cands {
		t1, err := tr.String(c.T1)
		if err != nil {
			return err
		}
		t2, err := tr.String(c.T2)
		if err != nil {
			return err
		}
		relName, err := tr.String(c.Rel)
		if err != nil {
			return err
		}
		rel := relations.Rel(relName)
		d1, err := tr.String(c.Display1)
		if err != nil {
			return err
		}
		d2, err := tr.String(c.Display2)
		if err != nil {
			return err
		}
		cs := &candState{display1: d1, display2: d2, holdConfigs: c.HoldConfigs, agg: score.NewAggregator()}
		for _, s := range c.Scores {
			key, err := tr.String(s.Key)
			if err != nil {
				return err
			}
			cs.agg.AddInstance(key, s.Score)
		}
		ti1, ok := transformIdx[t1]
		if !ok {
			return fmt.Errorf("mining: imported accumulator names unknown transform %q", t1)
		}
		ti2, ok := transformIdx[t2]
		if !ok {
			return fmt.Errorf("mining: imported accumulator names unknown transform %q", t2)
		}
		ri, ok := relIdx[rel]
		if !ok {
			return fmt.Errorf("mining: imported accumulator names unknown relation %q", rel)
		}
		p1, err := tr.ID(c.P1)
		if err != nil {
			return err
		}
		p2, err := tr.ID(c.P2)
		if err != nil {
			return err
		}
		a.candI[candKeyI{p1: p1, i1: int32(c.I1), t1: ti1, rel: ri, p2: p2, i2: int32(c.I2), t2: ti2}] = cs
	}
	return nil
}
