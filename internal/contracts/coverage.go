package contracts

import (
	"math/big"

	"concord/internal/faultinject"
	"concord/internal/lexer"
)

// CoverageResult reports which lines of one configuration are covered by
// a contract set. A line is covered if removing it would violate at
// least one contract (§3.9). Metadata lines are excluded.
type CoverageResult struct {
	// SourceLines is the denominator: non-blank lines of the original
	// configuration.
	SourceLines int
	// Covered maps covered line indexes (into Config.Lines) to true.
	Covered map[int]bool
	// ByCategory maps each category to its covered line set. Categories
	// may overlap; their percentages can sum to more than the total.
	ByCategory map[Category]map[int]bool
}

// Percent returns the fraction of source lines covered, in [0, 100].
func (r *CoverageResult) Percent() float64 {
	if r.SourceLines == 0 {
		return 0
	}
	return 100 * float64(len(r.Covered)) / float64(r.SourceLines)
}

// CategoryPercent returns the coverage percentage attributable to one
// category.
func (r *CoverageResult) CategoryPercent(cat Category) float64 {
	if r.SourceLines == 0 {
		return 0
	}
	return 100 * float64(len(r.ByCategory[cat])) / float64(r.SourceLines)
}

// Coverage computes per-line coverage of cfg under the checker's
// contract set. Rather than re-checking the configuration once per line,
// each category is analyzed directly:
//
//   - present: a line is covered if it is the only match of a required
//     pattern;
//   - ordering: covered if its removal leaves a preceding forall line
//     without a matching successor;
//   - sequence: covered if the remaining values are no longer
//     equidistant;
//   - unique: covered if it is the configuration's only definition of
//     the unique parameter (the existence component);
//   - relational: covered if it is the sole witness for some forall
//     line;
//   - type: never covered — removing a line cannot create a type
//     violation (the paper makes the same observation).
//
// The analysis is a slight under/over-approximation for block header
// lines: removing a header also reparents its children during context
// embedding, which can vacuously satisfy a contract the header
// witnessed. Exact semantics would require one full re-check per line;
// the approximation matches exact removal for leaf lines.
//
// Coverage shares the compiled contract set and the per-configuration
// pattern index with Check (CheckConfig runs both on one view):
// anchored contract groups (ordering, sequence, relational) whose
// anchor pattern is absent mark no lines and are skipped wholesale;
// absence contracts (present, unique) are always consulted.
func (ch *Checker) Coverage(cfg *lexer.Config) *CoverageResult {
	v := ch.newView(cfg)
	res := ch.coverView(v)
	ch.flushCache(v)
	return res
}

// coverView is Coverage's body over an already built view.
func (ch *Checker) coverView(v *view) *CoverageResult {
	cfg := v.cfg
	res := &CoverageResult{
		SourceLines: cfg.SourceLines,
		Covered:     make(map[int]bool),
		ByCategory:  make(map[Category]map[int]bool),
	}
	mark := func(cat Category, li int) {
		if li < 0 || li >= len(cfg.Lines) || cfg.Lines[li].Meta {
			return
		}
		res.Covered[li] = true
		m := res.ByCategory[cat]
		if m == nil {
			m = make(map[int]bool)
			res.ByCategory[cat] = m
		}
		m[li] = true
	}
	cover := func(c Contract) {
		ch.contained(c, cfg.Name, func() {
			faultinject.At("contracts.coverage.contract", c.ID())
			switch c := c.(type) {
			case *Present:
				if lines := v.matches(c); len(lines) == 1 {
					mark(CatPresent, lines[0])
				}
			case *Unique:
				if lines := v.lines(c.Pattern); len(lines) == 1 {
					mark(CatUnique, lines[0])
				}
			case *Ordering:
				ch.coverOrdering(v, c, mark)
			case *Sequence:
				ch.coverSequence(v, c, mark)
			case *Relational:
				ch.coverRelational(v, c, mark)
			}
		})
	}
	if ch.linear {
		for _, c := range ch.set.Contracts {
			cover(c)
		}
	} else {
		for _, c := range ch.cs.absence {
			cover(c)
		}
		for _, id := range v.presentIDs {
			for _, c := range ch.cs.anchored[id] {
				cover(c)
			}
		}
	}
	ch.rec.Add("coverage.lines_covered", int64(len(res.Covered)))
	return res
}

func (ch *Checker) coverOrdering(v *view, c *Ordering, mark func(Category, int)) {
	for _, li := range v.lines(c.First) {
		next := successor(v.cfg, li)
		if next < 0 {
			continue
		}
		// Removing the successor makes the line after it the new
		// successor; if that no longer matches Second, the removed line
		// was load-bearing.
		after := successor(v.cfg, next)
		if after < 0 || v.cfg.Lines[after].Pattern != c.Second {
			mark(CatOrdering, next)
		}
	}
}

func (ch *Checker) coverSequence(v *view, c *Sequence, mark func(Category, int)) {
	vals, at := v.numericValues(c.Pattern, c.ParamIdx)
	if len(vals) < 3 {
		return
	}
	scratch := make([]*big.Int, 0, len(vals)-1)
	for i := range vals {
		scratch = scratch[:0]
		scratch = append(scratch, vals[:i]...)
		scratch = append(scratch, vals[i+1:]...)
		if !equidistant(scratch) {
			mark(CatSequence, at[i])
		}
	}
}

func (ch *Checker) coverRelational(v *view, c *Relational, mark func(Category, int)) {
	for _, li := range v.lines(c.Pattern1) {
		ws := ch.findWitnesses(v, c, li)
		if len(ws) == 1 {
			mark(CatRelation, ws[0])
		}
	}
}
