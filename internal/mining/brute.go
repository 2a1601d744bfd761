package mining

import (
	"context"
	"math"
	"sort"

	"concord/internal/contracts"
	"concord/internal/lexer"
	"concord/internal/netdata"
	"concord/internal/relations"
	"concord/internal/score"
)

// MineRelationalBruteForce is the naive relational miner the paper uses
// as an ablation (§5.2): it enumerates every pair of (pattern,
// parameter, transform) sources and every relation, and tests each
// candidate by scanning all value pairs. Its cost is quadratic in the
// number of parameter sources per configuration (and worse in values),
// which is why it fails to terminate on the WAN datasets. The context
// lets callers impose the paper's one-hour (or any) timeout; on
// cancellation the partial result learned so far is returned along with
// ctx.Err().
func (m *Miner) MineRelationalBruteForce(ctx context.Context, cfgs []*lexer.Config) ([]contracts.Contract, error) {
	// Support counts come from the statistics fold alone; the indexed
	// relational scan never runs here.
	tab, err := corpusTable(cfgs)
	if err != nil {
		return nil, err
	}
	sti := newStatsI(len(cfgs), tab)
	for _, cfg := range cfgs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := m.statsOneConfig(cfg, sti); err != nil {
			return nil, err
		}
	}
	st := sti.finalize()
	rels := []relations.Rel{relations.Equals, relations.Contains, relations.StartsWith, relations.EndsWith}

	global := make(map[candKey]*candState)
	for _, cfg := range cfgs {
		// Materialize every (pattern, param, transform) source with its
		// values and line indexes.
		type source struct {
			p    string
			i    int
			t    string
			vals []netdata.Value
			at   []int
		}
		idx := make(map[lhsTriple]int)
		var sources []source
		displays := make(map[string]string)
		for li := range cfg.Lines {
			line := &cfg.Lines[li]
			displays[line.Pattern] = line.Display
			for pi := range line.Params {
				for _, ap := range relations.ApplyAll(m.transforms, line.Params[pi].Value) {
					k := lhsTriple{p: line.Pattern, i: pi, t: ap.Transform}
					si, ok := idx[k]
					if !ok {
						si = len(sources)
						idx[k] = si
						sources = append(sources, source{p: k.p, i: k.i, t: k.t})
					}
					sources[si].vals = append(sources[si].vals, ap.Value)
					sources[si].at = append(sources[si].at, li)
				}
			}
		}
		// Quadratic enumeration of candidate contracts.
		for si := range sources {
			if err := ctx.Err(); err != nil {
				return finishBrute(global, st, m), err
			}
			s1 := &sources[si]
			for sj := range sources {
				s2 := &sources[sj]
				if s1.p == s2.p && s1.i == s2.i {
					continue // a parameter never witnesses itself
				}
				density := 1 / (1 + math.Log2(math.Max(1, float64(len(s2.vals)))))
				for _, rel := range rels {
					// forall instances of s1, exists witness in s2.
					holdsAll := true
					agg := make([]scoredInstance, 0, len(s1.vals))
					for _, v1 := range s1.vals {
						found := false
						best := 0.0
						for _, v2 := range s2.vals {
							if rel.Holds(v1, v2) {
								found = true
								ws := score.Value(v2)
								if lv := score.Value(v1); lv < ws {
									ws = lv
								}
								if ws > best {
									best = ws
								}
							}
						}
						if !found {
							holdsAll = false
							break
						}
						agg = append(agg, scoredInstance{key: v1.Key(), s: best * density})
					}
					if !holdsAll {
						continue
					}
					k := candKey{p1: s1.p, i1: s1.i, t1: s1.t, rel: rel, p2: s2.p, i2: s2.i, t2: s2.t}
					cs := global[k]
					if cs == nil {
						cs = &candState{display1: displays[k.p1], display2: displays[k.p2], agg: score.NewAggregator()}
						global[k] = cs
					}
					cs.holdConfigs++
					for _, inst := range agg {
						cs.agg.AddInstance(inst.key, inst.s)
					}
				}
			}
		}
	}
	return finishBrute(global, st, m), nil
}

type lhsTriple struct {
	p string
	i int
	t string
}

// scoredInstance is one scored forall instance of a candidate.
type scoredInstance struct {
	key string
	s   float64
}

// finishBrute applies the same support/confidence/score filters as the
// indexed miner so the two are comparable.
func finishBrute(global map[candKey]*candState, st *stats, m *Miner) []contracts.Contract {
	var out []contracts.Contract
	for k, cs := range global {
		ps := st.patterns[k.p1]
		if ps == nil || ps.configCount < m.opts.Support {
			continue
		}
		conf := float64(cs.holdConfigs) / float64(ps.configCount)
		if conf < m.opts.Confidence || cs.agg.Total() < m.opts.ScoreThreshold {
			continue
		}
		out = append(out, &contracts.Relational{
			Pattern1: k.p1, Display1: cs.display1, ParamIdx1: k.i1, Transform1: k.t1,
			Rel:      k.rel,
			Pattern2: k.p2, Display2: cs.display2, ParamIdx2: k.i2, Transform2: k.t2,
			Evidence: contracts.Stats{Support: ps.configCount, Confidence: conf, Score: cs.agg.Total()},
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}
