package core

import (
	"context"
	"sort"

	"concord/internal/contracts"
	"concord/internal/diag"
	"concord/internal/lexer"
	"concord/internal/telemetry"
)

// LineCoverage reports the coverage status of one configuration line
// (§3.9: "Concord summarizes the percent of configuration lines covered
// and also reports the coverage of each line").
type LineCoverage struct {
	// File is the configuration name.
	File string `json:"file"`
	// Line is the 1-based line number in the original file.
	Line int `json:"line"`
	// Raw is the original line text.
	Raw string `json:"raw"`
	// Covered reports whether removing the line would violate at least
	// one contract.
	Covered bool `json:"covered"`
	// Categories lists the contract categories covering the line.
	Categories []contracts.Category `json:"categories,omitempty"`
}

// CoverageLines computes per-line coverage detail for every source
// configuration under the given contract set. Metadata lines are
// excluded. Results are ordered by file then line. It is
// CoverageLinesContext with a background context.
func (e *Engine) CoverageLines(set *contracts.Set, sources, meta []Source) ([]LineCoverage, error) {
	return e.CoverageLinesContext(context.Background(), set, sources, meta)
}

// CoverageLinesContext is CoverageLines under a cancellable context.
func (e *Engine) CoverageLinesContext(ctx context.Context, set *contracts.Set, sources, meta []Source) ([]LineCoverage, error) {
	dc := diag.New()
	defer e.opts.Diagnostics.Merge(dc)
	cfgs, _, _, err := e.processContext(ctx, dc, sources, meta)
	if err != nil {
		return nil, err
	}
	return e.coverageLinesWith(ctx, dc, e.newChecker(set, dc, lexer.CommonInterns(cfgs)), cfgs)
}

// coverageLinesWith is the checker-parameterized implementation behind
// CoverageLinesContext; registry entries pass their shared compiled
// checker (forked with request-scoped sinks) instead of compiling anew.
func (e *Engine) coverageLinesWith(ctx context.Context, dc *diag.Collector, checker *contracts.Checker, cfgs []*lexer.Config) ([]LineCoverage, error) {
	perCfg := make([][]LineCoverage, len(cfgs))
	sp := e.opts.Telemetry.StartSpan(string(telemetry.StageCoverage))
	prog := &progressCounter{e: e, stage: telemetry.StageCoverage, total: len(cfgs)}
	err := e.forEachCtx(ctx, dc, telemetry.StageCoverage, e.opts.Parallelism, len(cfgs),
		func(i int) string { return cfgs[i].Name },
		func(i int) error {
			defer prog.tick()
			cov := checker.Coverage(cfgs[i])
			var out []LineCoverage
			for li := range cfgs[i].Lines {
				line := &cfgs[i].Lines[li]
				if line.Meta {
					continue
				}
				lc := LineCoverage{
					File:    cfgs[i].Name,
					Line:    line.Num,
					Raw:     line.Raw,
					Covered: cov.Covered[li],
				}
				for _, cat := range contracts.Categories() {
					if cov.ByCategory[cat][li] {
						lc.Categories = append(lc.Categories, cat)
					}
				}
				out = append(out, lc)
			}
			sort.Slice(out, func(a, b int) bool { return out[a].Line < out[b].Line })
			perCfg[i] = out
			return nil
		})
	sp.EndCount(len(cfgs))
	if err != nil {
		return nil, err
	}
	var all []LineCoverage
	for _, lines := range perCfg {
		all = append(all, lines...)
	}
	return all, nil
}
