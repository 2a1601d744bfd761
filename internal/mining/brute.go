package mining

import (
	"context"
	"math"

	"concord/internal/contracts"
	"concord/internal/intern"
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
	counted := make([]bool, len(cfgs))
	for ci, cfg := range cfgs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if counted[ci], err = m.statsOneConfig(cfg, sti); err != nil {
			return nil, err
		}
	}
	st := sti.finalize()
	rels := []relations.Rel{relations.Equals, relations.Contains, relations.StartsWith, relations.EndsWith}

	global := make(map[candKey]*candState)
	for ci, cfg := range cfgs {
		if !counted[ci] {
			continue // the statistics fold dropped this configuration
		}
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
				return m.finishBrute(global, st, tab), err
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
						cs = &candState{display1: displays[k.p1], display2: displays[k.p2]}
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
	return m.finishBrute(global, st, tab), nil
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

// finishBrute rekeys the candidates onto the indexed miner's interned
// form and filters them through the same acceptRelational (support,
// confidence, score, and transform echo suppression), so the two miners
// are comparable.
func (m *Miner) finishBrute(global map[candKey]*candState, st *stats, tab *intern.Table) []contracts.Contract {
	transforms := make(map[string]int32, len(m.transforms))
	for ti := range m.transforms {
		transforms[m.transforms[ti].Name] = int32(ti)
	}
	rels := make(map[relations.Rel]int8, len(m.rels))
	for ri, rel := range m.rels {
		rels[rel] = int8(ri)
	}
	interned := make(map[candKeyI]*candState, len(global))
	for k, cs := range global {
		interned[candKeyI{
			p1: tab.ID(k.p1), i1: int32(k.i1), t1: transforms[k.t1],
			rel: rels[k.rel],
			p2:  tab.ID(k.p2), i2: int32(k.i2), t2: transforms[k.t2],
		}] = cs
	}
	return m.acceptRelational(interned, st, tab)
}
