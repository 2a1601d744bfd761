package contracts

import "concord/internal/lexer"

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
// The analysis matches deleting the line and re-checking for every leaf
// line. It approximates block header lines: removing a header also
// reparents its children during context embedding, which can vacuously
// satisfy a contract the header witnessed, or break one its children
// satisfied. Deleting every line of one scale-0.25 configuration each
// of E1, E2, W2 and W4 and re-checking (internal/core's
// TestCoverageDeletionOracle) agrees on all 2,503 leaf lines; 16 of the
// 269 headers disagree, 6 covered but harmless to delete and 10
// uncovered but violating when deleted.
//
// Coverage is the same evaluation as Check (CheckConfig runs both at
// once): anchored contract groups (ordering, sequence, relational)
// whose anchor pattern is absent mark no lines and are skipped
// wholesale; absence contracts (present, unique) are always consulted.
func (ch *Checker) Coverage(cfg *lexer.Config) *CoverageResult {
	v := ch.newView(cfg)
	_, res := ch.evalView(v, false, true)
	ch.flushCache(v)
	return res
}
