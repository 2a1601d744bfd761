package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"concord/internal/contracts"
	"concord/internal/core"
	"concord/internal/format"
	"concord/internal/intern"
	"concord/internal/lexer"
	"concord/internal/minimize"
	"concord/internal/mining"
)

// layers composes the engine's learn and check pipelines from the public
// functions of the layers core calls, wired the way core wires them, so
// the traced run can time each call from outside the engine. Its outputs
// must be byte-identical to the engine's; the traced run checks that.
type layers struct {
	opts    core.Options
	lx      *lexer.Lexer
	workers int

	mu    sync.Mutex
	hits  int64 // lexer.Cache.Stats summed over the corpora processed
	miss  int64
	lines int64 // lines emitted by format.Process
	minRe []float64
}

func newLayers() (*layers, error) {
	lx, err := lexer.New()
	if err != nil {
		return nil, err
	}
	return &layers{opts: core.DefaultOptions(), lx: lx, workers: runtime.GOMAXPROCS(0)}, nil
}

// forEach runs fn(0..n-1) on the engine's worker count, as core's pool
// does.
func (l *layers) forEach(n int, fn func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < l.workers && w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// formatProcess calls format.Process under a span, with the corpus's
// lexer cache and intern table: core builds exactly one of each per
// processed corpus, and without the table mining silently takes its
// string-keyed path.
func (l *layers) formatProcess(parent openSpan, src core.Source, cache *lexer.Cache, interns *intern.Table) lexer.Config {
	sp := parent.child("format.Process")
	cfg := format.Process(src.Name, src.Text, l.lx, format.Options{Embed: l.opts.ContextEmbedding,
		Limits: l.opts.Limits, Cache: cache, Interns: interns})
	sp.end()
	l.mu.Lock()
	l.lines += int64(len(cfg.Lines))
	l.mu.Unlock()
	return cfg
}

// process mirrors core's processing stage: metadata first (its lines
// tagged @meta), then every source on the worker pool, each followed
// by the metadata lines.
func (l *layers) process(op openSpan, srcs, meta []core.Source, cache *lexer.Cache, interns *intern.Table) ([]*lexer.Config, error) {
	sp := op.child("core.process")
	defer sp.end()
	var metaLines []lexer.Line
	for _, m := range meta {
		cfg := l.formatProcess(sp, m, cache, interns)
		if cfg.Skipped {
			return nil, fmt.Errorf("metadata %s skipped", m.Name)
		}
		for _, line := range cfg.Lines {
			line.Meta = true
			line.Pattern = "@meta" + line.Pattern
			line.Display = "@meta" + line.Display
			line.Text = "@meta" + line.Text
			line.PatternID = interns.ID(line.Pattern)
			metaLines = append(metaLines, line)
		}
	}
	cfgs := make([]*lexer.Config, len(srcs))
	l.forEach(len(srcs), func(i int) {
		cfg := l.formatProcess(sp, srcs[i], cache, interns)
		cfg.Lines = append(cfg.Lines, metaLines...)
		cfgs[i] = &cfg
	})
	for _, cfg := range cfgs {
		if cfg.Skipped {
			return nil, fmt.Errorf("config %s skipped", cfg.Name)
		}
	}
	if cache != nil {
		h, m := cache.Stats()
		l.mu.Lock()
		l.hits += h
		l.miss += m
		l.mu.Unlock()
	}
	return cfgs, nil
}

// newCorpusState returns the per-corpus lexer cache and intern table
// core builds for one run.
func (l *layers) newCorpusState() (*lexer.Cache, *intern.Table) {
	return lexer.NewCache(l.opts.LexCacheSize), intern.NewTable()
}

// learn is Engine.Learn composed from format, mining and minimize.
func (l *layers) learn(op openSpan, srcs, meta []core.Source) (*contracts.Set, error) {
	cache, interns := l.newCorpusState()
	cfgs, err := l.process(op, srcs, meta, cache, interns)
	if err != nil {
		return nil, err
	}
	o := l.opts
	miner := mining.New(mining.Options{Support: o.Support, Confidence: o.Confidence, ScoreThreshold: o.ScoreThreshold,
		MaxFanout: o.MaxFanout, Parallelism: l.workers, Transforms: core.Transforms()})
	sp := op.child("mining.MineContext")
	set, err := miner.MineContext(context.Background(), cfgs)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = op.child("minimize.Set")
	set, res := minimize.Set(set)
	sp.end()
	l.mu.Lock()
	l.minRe = append(l.minRe, res.ReductionFactor())
	l.mu.Unlock()
	return set, nil
}

// checkReport is the part of a check result the digests cover.
type checkReport struct {
	Violations []contracts.Violation `json:"violations"`
	Coverage   core.CoverageSummary  `json:"coverage"`
}

// check is Engine.Check composed from format and contracts: compile the
// set against the corpus's intern table, check and cover every
// configuration on the worker pool, then the cross-configuration
// uniqueness pass.
func (l *layers) check(op openSpan, set *contracts.Set, srcs, meta []core.Source, cache *lexer.Cache, interns *intern.Table) (checkReport, error) {
	cfgs, err := l.process(op, srcs, meta, cache, interns)
	if err != nil {
		return checkReport{}, err
	}
	sp := op.child("contracts.NewChecker")
	ch := contracts.NewChecker(set, contracts.WithTransforms(core.Transforms()), contracts.WithInterns(interns))
	sp.end()
	return l.checkWith(op, ch, cfgs), nil
}

// checkWith runs a compiled checker over processed configurations.
func (l *layers) checkWith(op openSpan, ch *contracts.Checker, cfgs []*lexer.Config) checkReport {
	perCfg := make([][]contracts.Violation, len(cfgs))
	covs := make([]*contracts.CoverageResult, len(cfgs))
	pool := op.child("core.check")
	l.forEach(len(cfgs), func(i int) {
		sp := pool.child("contracts.Check")
		perCfg[i] = ch.Check(cfgs[i])
		sp.end()
		sp = pool.child("contracts.Coverage")
		covs[i] = ch.Coverage(cfgs[i])
		sp.end()
	})
	pool.end()
	sp := op.child("contracts.CheckUniqueAcross")
	unique := ch.CheckUniqueAcross(cfgs)
	sp.end()

	var rep checkReport
	for _, vs := range perCfg {
		rep.Violations = append(rep.Violations, vs...)
	}
	rep.Violations = append(rep.Violations, unique...)
	sort.Slice(rep.Violations, func(i, j int) bool {
		a, b := rep.Violations[i], rep.Violations[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.ContractID < b.ContractID
	})
	rep.Coverage.ByCategory = make(map[contracts.Category]int)
	for i, cov := range covs {
		cc := core.ConfigCoverage{Name: cfgs[i].Name, SourceLines: cov.SourceLines, Covered: len(cov.Covered),
			ByCategory: make(map[contracts.Category]int, len(cov.ByCategory))}
		for cat, lines := range cov.ByCategory {
			cc.ByCategory[cat] = len(lines)
			rep.Coverage.ByCategory[cat] += len(lines)
		}
		rep.Coverage.TotalLines += cc.SourceLines
		rep.Coverage.CoveredLines += cc.Covered
		rep.Coverage.PerConfig = append(rep.Coverage.PerConfig, cc)
	}
	return rep
}

// cacheHitRatio is the lexer cache hit ratio over every corpus processed.
func (l *layers) cacheHitRatio() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.hits+l.miss == 0 {
		return 0
	}
	return float64(l.hits) / float64(l.hits+l.miss)
}
