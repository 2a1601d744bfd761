package mining

import (
	"math/big"

	"concord/internal/faultinject"
	"concord/internal/intern"
	"concord/internal/lexer"
	"concord/internal/netdata"
)

// statsI is the statistics pass's accumulator: the aggregates of stats
// keyed by dense pattern IDs instead of pattern strings, so the
// per-line fold in statsOneConfig hashes small integers instead of full
// context-embedded pattern text. finalize converts to the string-keyed
// stats the miners consume (a per-distinct-key cost, negligible next to
// the per-line pass).
type statsI struct {
	nConfigs  int
	tab       *intern.Table
	patterns  map[int32]*patternStats
	pairs     map[[2]int32]*pairStats
	firstOccs map[int32]int
	types     map[string]*typeStats
	agOf      map[int32]string // memoized TypeAgnostic per pattern ID
	seqs      map[int64]*seqStats
	uniqs     map[int64]*uniqStats
	constants map[string]*patternStats
}

// key2i packs (pattern ID, param index) into one map key; the parts are
// recovered by shifting, so no side meta table is needed.
func key2i(pid int32, idx int) int64 {
	return int64(pid)<<32 | int64(uint32(idx))
}

func newStatsI(nConfigs int, tab *intern.Table) *statsI {
	return &statsI{
		nConfigs:  nConfigs,
		tab:       tab,
		patterns:  make(map[int32]*patternStats),
		pairs:     make(map[[2]int32]*pairStats),
		firstOccs: make(map[int32]int),
		types:     make(map[string]*typeStats),
		agOf:      make(map[int32]string),
		seqs:      make(map[int64]*seqStats),
		uniqs:     make(map[int64]*uniqStats),
		constants: make(map[string]*patternStats),
	}
}

// pid returns a line's dense pattern ID, interning on the fly for lines
// that carry none (hand-built configurations, folded into a fresh
// table; see corpusTable).
func (st *statsI) pid(line *lexer.Line) int32 {
	if line.PatternID != 0 {
		return line.PatternID
	}
	return st.tab.ID(line.Pattern)
}

// statsOneConfig folds one configuration into the statistics and
// reports whether the fold completed; it did not when a panic was
// contained, and the caller then drops the configuration's relational
// evidence too, so no candidate holds in more configurations than its
// pattern was counted in. Containment is best-effort: the
// fault-injection point fires before any mutation, but a genuine
// mid-fold panic can leave this configuration partially counted (the
// diagnostic says which).
func (m *Miner) statsOneConfig(cfg *lexer.Config, st *statsI) (bool, error) {
	counted := false
	err := m.contain(cfg.Name, func() {
		faultinject.At("mining.stats.config", cfg.Name)
		seenPatterns := make(map[int32]bool)
		seenConstants := make(map[string]bool)
		// Ordering bookkeeping: per first-pattern occurrence counts and
		// per-(first,second) successor counts within this config.
		occ := make(map[int32]int)
		succ := make(map[[2]int32]int)
		succDisp := make(map[[2]int32][2]string)
		// Sequence bookkeeping: values in line order.
		seqVals := make(map[int64][]*big.Int)
		for i := range cfg.Lines {
			line := &cfg.Lines[i]
			p := st.pid(line)
			ps := st.patterns[p]
			if ps == nil {
				ps = &patternStats{display: line.Display}
				st.patterns[p] = ps
			}
			ps.lineCount++
			if !seenPatterns[p] {
				seenPatterns[p] = true
				ps.configCount++
			}
			// Constants: exact line text of valued lines.
			if len(line.Params) > 0 && !seenConstants[line.Text] {
				seenConstants[line.Text] = true
				cs := st.constants[line.Text]
				if cs == nil {
					cs = &patternStats{display: line.Text}
					st.constants[line.Text] = cs
				}
				cs.configCount++
			}
			// Ordering pairs (not across the metadata boundary).
			occ[p]++
			if next := i + 1; next < len(cfg.Lines) && cfg.Lines[next].Meta == line.Meta {
				k := [2]int32{p, st.pid(&cfg.Lines[next])}
				succ[k]++
				succDisp[k] = [2]string{line.Display, cfg.Lines[next].Display}
			}
			// Types. The agnostic form is memoized per pattern ID: it is a
			// pure rewrite of the pattern text, so computing it once per
			// distinct pattern replaces a per-line regex pass.
			if len(line.Params) > 0 {
				ag, ok := st.agOf[p]
				if !ok {
					ag = lexer.TypeAgnostic(line.Pattern)
					st.agOf[p] = ag
				}
				ts := st.types[ag]
				if ts == nil {
					ts = &typeStats{}
					st.types[ag] = ts
				}
				for len(ts.perParam) < len(line.Params) {
					ts.perParam = append(ts.perParam, make(map[string]*typeUse))
				}
				ts.total++
				for pi, prm := range line.Params {
					tu := ts.perParam[pi][prm.Type]
					if tu == nil {
						tu = &typeUse{}
						ts.perParam[pi][prm.Type] = tu
					}
					tu.lines++
				}
			}
			// Sequences and uniques per parameter.
			for pi, prm := range line.Params {
				k := key2i(p, pi)
				if n, ok := prm.Value.(netdata.Num); ok {
					seqVals[k] = append(seqVals[k], n.Big())
					if _, ok := st.seqs[k]; !ok {
						st.seqs[k] = &seqStats{display: line.Display}
					}
				}
				us := st.uniqs[k]
				if us == nil {
					us = &uniqStats{display: line.Display, valueCount: make(map[string]int)}
					st.uniqs[k] = us
				}
				us.valueCount[prm.Value.Key()]++
				us.totalValues++
			}
		}
		// Fold per-config ordering results into global pair stats.
		for k, n := range succ {
			ps := st.pairs[k]
			if ps == nil {
				d := succDisp[k]
				ps = &pairStats{displayFirst: d[0], displaySecond: d[1]}
				st.pairs[k] = ps
			}
			if n == occ[k[0]] {
				ps.holdConfigs++
			}
		}
		for p := range seenPatterns {
			st.firstOccs[p]++
		}
		// Fold per-config sequence results.
		for k, vals := range seqVals {
			ss := st.seqs[k]
			if ss == nil {
				continue
			}
			if len(vals) >= 2 {
				ss.configsWith2++
				if isArithmetic(vals) {
					ss.configsSeq++
				}
			}
		}
		counted = true
	})
	return counted, err
}

// finalize converts the interned aggregates to the string-keyed stats
// the miners consume.
func (st *statsI) finalize() *stats {
	out := &stats{
		nConfigs:  st.nConfigs,
		patterns:  make(map[string]*patternStats, len(st.patterns)),
		pairs:     make(map[[2]string]*pairStats, len(st.pairs)),
		firstOccs: make(map[string]int, len(st.firstOccs)),
		types:     st.types,
		seqs:      make(map[string]*seqStats, len(st.seqs)),
		uniqs:     make(map[string]*uniqStats, len(st.uniqs)),
		constants: st.constants,
		seqMeta:   make(map[string]patternParam, len(st.seqs)),
		uniqMeta:  make(map[string]patternParam, len(st.uniqs)),
	}
	for pid, ps := range st.patterns {
		out.patterns[st.tab.String(pid)] = ps
	}
	for k, ps := range st.pairs {
		out.pairs[[2]string{st.tab.String(k[0]), st.tab.String(k[1])}] = ps
	}
	for pid, n := range st.firstOccs {
		out.firstOccs[st.tab.String(pid)] = n
	}
	for k, ss := range st.seqs {
		pattern, idx := st.tab.String(int32(k>>32)), int(int32(k))
		sk := key2(pattern, idx)
		out.seqs[sk] = ss
		out.seqMeta[sk] = patternParam{pattern: pattern, idx: idx}
	}
	for k, us := range st.uniqs {
		pattern, idx := st.tab.String(int32(k>>32)), int(int32(k))
		sk := key2(pattern, idx)
		out.uniqs[sk] = us
		out.uniqMeta[sk] = patternParam{pattern: pattern, idx: idx}
	}
	return out
}
