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
	return e.coverageSources(ctx, dc, set, sources, meta, nil)
}

// coverageSources is the coverage front from sources, behind
// CoverageLinesContext and RegistryEntry.CoverageLinesContext, shaped
// like checkSources: it builds the run's corpus state and checker,
// streams each source through a step that computes its configuration's
// line coverage into the source's slot, applies the strict gate, and
// concatenates the slots in corpus order. checker, when non-nil, is a
// pre-compiled checker to reuse; nil compiles one against the run's
// intern table.
func (e *Engine) coverageSources(ctx context.Context, dc *diag.Collector, set *contracts.Set, sources, meta []Source, checker *contracts.Checker) ([]LineCoverage, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
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
	spCov := e.opts.Telemetry.StartSpan(string(telemetry.StageCoverage))
	procProg := &progressCounter{e: e, stage: telemetry.StageProcess, total: len(sources)}
	covProg := &progressCounter{e: e, stage: telemetry.StageCoverage, total: len(sources)}
	perCfg := make([][]LineCoverage, len(sources))
	tally, err := e.streamSources(ctx, dc, cr, sources, e.opts.Parallelism, procProg, covProg,
		func(_, i int, cfg *lexer.Config, _ sourceArt) error {
			return e.contain(dc, telemetry.StageCoverage, cfg.Name, func() error {
				perCfg[i] = lineCoverage(checker, cfg)
				return nil
			})
		})
	cr.emitCacheStats(e)
	spProc.EndCount(len(sources))
	spCov.EndCount(len(sources))
	if err == nil {
		err = e.strictGate(dc)
	}
	if err != nil {
		return nil, err
	}
	e.setCorpusGauges(tally.stats())
	var all []LineCoverage
	for _, lines := range perCfg {
		all = append(all, lines...)
	}
	return all, nil
}

// lineCoverage reports every non-metadata line of cfg, in line order.
func lineCoverage(checker *contracts.Checker, cfg *lexer.Config) []LineCoverage {
	cov := checker.Coverage(cfg)
	var out []LineCoverage
	for li := range cfg.Lines {
		line := &cfg.Lines[li]
		if line.Meta {
			continue
		}
		lc := LineCoverage{
			File:    cfg.Name,
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
	return out
}
