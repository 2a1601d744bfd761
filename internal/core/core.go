// Package core is Concord's engine: it orchestrates format inference and
// context embedding (§3.1), pattern and value extraction (§3.2),
// contract mining (§3.4–§3.5), contract minimization (§3.6), metadata
// incorporation (§3.7), contract checking (§3.8), and coverage
// measurement (§3.9). The root concord package re-exports this engine as
// the public API.
package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"concord/internal/artifact"
	"concord/internal/contracts"
	"concord/internal/diag"
	"concord/internal/faultinject"
	"concord/internal/format"
	"concord/internal/intern"
	"concord/internal/lexer"
	"concord/internal/minimize"
	"concord/internal/mining"
	"concord/internal/relations"
	"concord/internal/telemetry"
)

// Source is one input file: a configuration or a metadata document.
type Source struct {
	// Name identifies the file (shown in violations).
	Name string
	// Text is the raw file content.
	Text []byte
}

// Options configures the engine, mirroring the command-line parameters
// of §4.
type Options struct {
	// Support (S): minimum number of configurations a pattern must
	// appear in. Default 5.
	Support int
	// Confidence (C): required fraction of supporting configurations in
	// which a contract holds. Default 0.96.
	Confidence float64
	// ScoreThreshold filters spurious relational contracts (§3.5).
	// Default 8.
	ScoreThreshold float64
	// Parallelism is the worker count for processing, mining, and
	// checking; 0 selects GOMAXPROCS.
	Parallelism int
	// ContextEmbedding enables hierarchical context embedding (§3.1).
	ContextEmbedding bool
	// ConstantLearning additionally learns exact-line contracts (§4).
	ConstantLearning bool
	// Minimize runs relational contract minimization (§3.6).
	Minimize bool
	// Categories restricts learning to the listed categories; empty
	// learns all. (The production deployment disables ordering, §5.4.)
	Categories []contracts.Category
	// UserTokens extends the lexer with domain-specific token types.
	UserTokens []lexer.TokenSpec
	// ExtraTransforms extends the data transformation registry beyond
	// the defaults (identity, hex, str, octets, MAC segments); §4 notes
	// the implementation keeps relation learning extensible.
	ExtraTransforms []relations.Transform
	// ExtraRelations adds user-defined relations (with their witness
	// indexes) to the built-in four.
	ExtraRelations []relations.Definition
	// MaxFanout bounds per-value candidate generation. Default 64.
	MaxFanout int
	// Telemetry, when non-nil, receives per-stage spans (process, mine,
	// minimize, check), per-category miner counters, and checker
	// counters. Telemetry off (nil) costs nothing on the hot paths.
	Telemetry *telemetry.Recorder
	// Diagnostics, when non-nil, accumulates every run's contained
	// faults and input-guard degradations (skipped files, truncated
	// lines, recovered panics, skipped contracts). Each Learn/Check run
	// also surfaces its own diagnostics in LearnResult/CheckResult, so
	// attaching a collector is only needed to aggregate across runs.
	Diagnostics *diag.Collector
	// Strict disables fault containment: the first worker panic, guard
	// violation, or skipped input aborts the run with an error carrying
	// the same information a lenient run would have reported as
	// diagnostics. Lenient (false, the default) returns partial results
	// plus diagnostics.
	Strict bool
	// Limits bounds input processing (max file size, line length,
	// nesting depth, lines per config); zero fields select the
	// defaults. See format.Limits.
	Limits format.Limits
	// Progress, when non-nil, is invoked after each unit of work in a
	// pipeline stage (one configuration processed, mined, or checked).
	// Calls are serialized by the engine, so the callback need not be
	// thread-safe; it must be fast, as it runs on worker goroutines.
	Progress func(stage telemetry.Stage, done, total int)
	// LexCacheSize sizes the per-run lexer memoization cache in distinct
	// lines: 0 selects lexer.DefaultCacheEntries, negative disables the
	// cache entirely. The cache is created fresh for each processed
	// corpus and shared across that run's parallel workers.
	LexCacheSize int
	// Artifacts, when non-nil, is a content-addressed on-disk artifact
	// cache (see internal/artifact). Processing then persists each
	// cleanly lexed source as a binary artifact keyed by its content
	// hash plus a fingerprint of every option affecting lexing, and
	// replays it on later runs instead of re-lexing. Corrupt or stale
	// entries degrade to the cold path with a warning diagnostic —
	// results are identical with or without a cache. Note that user
	// token specs with custom Parse funcs are fingerprinted by name,
	// pattern, and flags only: changing a Parse func's behavior without
	// changing the spec requires a fresh cache directory.
	Artifacts *artifact.Cache
	// Incremental additionally replays cached per-configuration check
	// results in Check/CheckContext: configurations whose content hash,
	// processing options, metadata corpus, and contract-set fingerprint
	// are unchanged skip re-checking entirely, contributing their cached
	// violations, coverage counts, and unique-contract value multisets
	// (so cross-configuration uniqueness stays exact over a mix of
	// cached and fresh configs). Requires Artifacts.
	Incremental bool
	// Shards, when greater than one, routes Check/CheckContext and
	// Learn/LearnContext through the fleet-scale sharded drivers: the
	// corpus is partitioned into that many deterministic contiguous
	// shards, shards run on a bounded pool, and each shard streams
	// per-configuration work — lexed configurations are released as the
	// shard advances, so peak memory is bounded by in-flight shards
	// rather than fleet size. A sharded check merges cross-config
	// Unique contracts through the contracts.UniqueCombiner; a
	// sharded learn folds each configuration into a per-shard
	// mining.StatsAccumulator and merges the accumulators in shard
	// order. Results are byte-identical to the unsharded paths, warm
	// artifact replay included. See DESIGN.md §11 and §13.
	Shards int
	// ShardWorkers bounds how many shards are in flight at once; 0
	// selects Parallelism. Configurations within a shard are processed
	// sequentially, so ShardWorkers is the effective parallelism of a
	// sharded check or learn.
	ShardWorkers int
	// ShardBackend selects how a sharded check or learn executes its
	// shards. Empty or ShardBackendInProcess runs them on a goroutine
	// pool in this process (the default). ShardBackendProcess
	// dispatches each shard to a pool of worker child processes over
	// the shardrpc wire protocol, with bounded crash retries and
	// straggler speculation; results are byte-identical across
	// backends, warm artifact replay included. The process backend
	// also routes Shards == 1 through the sharded driver, so a
	// single-shard corpus still executes out of process. It cannot
	// serialize ExtraTransforms, ExtraRelations, or UserTokens with
	// custom Parse funcs — such options are rejected.
	ShardBackend string
	// ShardWorkerCommand is the worker argv for ShardBackendProcess;
	// element 0 is the executable. Empty selects the
	// CONCORD_SHARD_WORKER_CMD environment variable (whitespace-split)
	// and, failing that, the running executable invoked with a single
	// "shard-worker" argument — correct when the embedding binary is
	// the concord CLI or a test binary with the worker trampoline.
	ShardWorkerCommand []string
}

// The shard execution backends (Options.ShardBackend).
const (
	ShardBackendInProcess = "inprocess"
	ShardBackendProcess   = "process"
)

// shardingActive reports whether Check/CheckContext and
// Learn/LearnContext route through the sharded drivers: always for
// Shards > 1, and for a single explicit shard when the process backend
// is selected (so the work still leaves this process).
func (o Options) shardingActive() bool {
	return o.Shards > 1 || (o.Shards == 1 && o.ShardBackend == ShardBackendProcess)
}

// Validate rejects unusable option values: Support below 1, Confidence
// outside (0, 1], negative ScoreThreshold or MaxFanout, NaN, non-positive
// guard limits, and an invalid shard selection (see ValidateSharding).
// New calls it after filling defaulted (zero) Support, Confidence, and
// Limits, so only explicitly nonsensical values are rejected.
func (o Options) Validate() error {
	if o.Support < 1 {
		return fmt.Errorf("core: Support must be at least 1 (got %d)", o.Support)
	}
	// The comparisons are written so that NaN, which fails every
	// comparison, is rejected.
	if !(o.Confidence > 0 && o.Confidence <= 1) {
		return fmt.Errorf("core: Confidence must be in (0, 1] (got %v)", o.Confidence)
	}
	if !(o.ScoreThreshold >= 0) {
		return fmt.Errorf("core: ScoreThreshold must be non-negative (got %v)", o.ScoreThreshold)
	}
	if o.MaxFanout < 0 {
		return fmt.Errorf("core: MaxFanout must be non-negative (got %v)", o.MaxFanout)
	}
	if err := o.Limits.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if o.Incremental && o.Artifacts == nil {
		return fmt.Errorf("core: Incremental requires an Artifacts cache")
	}
	return o.ValidateSharding()
}

// ValidateSharding rejects an unusable shard selection: negative Shards
// or ShardWorkers, an unknown ShardBackend, and the process backend
// together with options that cannot cross a process boundary
// (ExtraTransforms, ExtraRelations, and user tokens with a custom Parse
// func). Validate calls it; a service that takes the shard selection
// per request calls it on its engine options with the request's shard
// fields set, before any work starts.
func (o Options) ValidateSharding() error {
	if o.Shards < 0 {
		return fmt.Errorf("core: Shards must be non-negative (got %d)", o.Shards)
	}
	if o.ShardWorkers < 0 {
		return fmt.Errorf("core: ShardWorkers must be non-negative (got %d)", o.ShardWorkers)
	}
	switch o.ShardBackend {
	case "", ShardBackendInProcess:
	case ShardBackendProcess:
		if len(o.ExtraTransforms) > 0 || len(o.ExtraRelations) > 0 {
			return fmt.Errorf("core: shard backend %q cannot serialize ExtraTransforms or ExtraRelations across the process boundary", o.ShardBackend)
		}
		for _, t := range o.UserTokens {
			if t.Parse != nil {
				return fmt.Errorf("core: shard backend %q cannot serialize the custom Parse func of user token %q", o.ShardBackend, t.Name)
			}
		}
	default:
		return fmt.Errorf("core: unknown shard backend %q (want %q or %q)", o.ShardBackend, ShardBackendInProcess, ShardBackendProcess)
	}
	return nil
}

// resolvedOptions is the plain-data part of a resolved Options that a
// shard worker needs, and nothing process-local (no funcs, recorders,
// caches, or sinks). A learn worker only folds statistics
// (mining.StatsAccumulator.Fold reads MaxFanout and Categories); the
// mining thresholds apply where the parent mines the merged evidence,
// so they stay out. Its JSON encoding is canonical — fixed field
// order, no maps — so the process backend's Job carries it as bytes, a
// worker rebuilds its Options from it (options), and procFingerprint
// hashes its processing part.
type resolvedOptions struct {
	Proc         procOptions
	Strict       bool
	Incremental  bool
	LexCacheSize int
	MaxFanout    int
	Categories   []contracts.Category
}

// procOptions is the processing part of resolvedOptions: every option
// that changes what processing produces for a given source.
type procOptions struct {
	ContextEmbedding bool
	Limits           format.Limits
	UserTokens       []tokenSpec
}

// tokenSpec is a lexer.TokenSpec as plain data. A custom Parse func
// cannot be encoded, so Parse records only its presence; the process
// backend refuses such tokens (ValidateSharding), so it is never true
// on the wire.
type tokenSpec struct {
	Name          string
	Pattern       string
	Parse         bool
	NoDigitBefore bool
	WordBoundary  bool
}

// resolved describes o as plain data; limits resolve to their defaults.
func (o Options) resolved() resolvedOptions {
	ro := resolvedOptions{
		Proc:         procOptions{ContextEmbedding: o.ContextEmbedding, Limits: o.Limits.WithDefaults()},
		Strict:       o.Strict,
		Incremental:  o.Incremental,
		LexCacheSize: o.LexCacheSize,
		MaxFanout:    o.MaxFanout,
		Categories:   o.Categories,
	}
	for _, t := range o.UserTokens {
		ro.Proc.UserTokens = append(ro.Proc.UserTokens, tokenSpec{
			Name: t.Name, Pattern: t.Pattern, Parse: t.Parse != nil,
			NoDigitBefore: t.NoDigitBefore, WordBoundary: t.WordBoundary,
		})
	}
	return ro
}

// options rebuilds the Options a shard worker runs under; New fills
// the mining thresholds the worker never reads with their defaults.
// Parallelism is 1: a worker runs one shard at a time, sequentially.
// The caller attaches the artifact cache.
func (ro *resolvedOptions) options() Options {
	opts := Options{
		Parallelism:      1,
		ContextEmbedding: ro.Proc.ContextEmbedding,
		Limits:           ro.Proc.Limits,
		Strict:           ro.Strict,
		Incremental:      ro.Incremental,
		LexCacheSize:     ro.LexCacheSize,
		MaxFanout:        ro.MaxFanout,
		Categories:       ro.Categories,
	}
	for _, t := range ro.Proc.UserTokens {
		opts.UserTokens = append(opts.UserTokens, lexer.TokenSpec{
			Name: t.Name, Pattern: t.Pattern,
			NoDigitBefore: t.NoDigitBefore, WordBoundary: t.WordBoundary,
		})
	}
	return opts
}

// DefaultOptions returns the paper's defaults: S=5, C=96%, context
// embedding and minimization on, default input-guard limits.
func DefaultOptions() Options {
	return Options{
		Support:          5,
		Confidence:       0.96,
		ScoreThreshold:   8,
		ContextEmbedding: true,
		Minimize:         true,
		Limits:           format.DefaultLimits(),
	}
}

// Engine runs Concord's learn and check pipelines. Safe for concurrent
// use after construction.
type Engine struct {
	opts       Options
	lx         *lexer.Lexer
	transforms []relations.Transform
	// procFP fingerprints every option that affects processing output
	// (context embedding, input limits, user token specs). It is folded
	// into all artifact cache keys so an option change misses naturally.
	procFP artifact.Key
	// resident, when non-nil, holds the lexer cache and intern table
	// this engine keeps hot across runs instead of creating per corpus.
	// Registry entries set it so concurrent service requests share one
	// warm cache and one ID space (see EngineRegistry).
	resident *residentState
	// progressMu serializes Options.Progress callbacks issued from
	// worker goroutines.
	progressMu sync.Mutex
	// dist overrides the process shard backend's scheduler policy
	// (retry budget, speculation thresholds); nil selects the shardrpc
	// defaults. It exists for tests that need deterministic fault and
	// straggler behavior.
	dist *distPolicy
}

// New builds an engine, compiling any user token specifications. Options
// are validated: zero Support and Confidence select the defaults (so the
// zero Options value keeps working), but explicitly out-of-range values
// are rejected with an error rather than silently accepted.
func New(opts Options) (*Engine, error) {
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	def := DefaultOptions()
	if opts.Support == 0 {
		opts.Support = def.Support
	}
	if opts.Confidence == 0 {
		opts.Confidence = def.Confidence
	}
	opts.Limits = opts.Limits.WithDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	lx, err := lexer.New(opts.UserTokens...)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	seen := make(map[string]bool)
	transforms := relations.DefaultTransforms()
	for _, t := range transforms {
		seen[t.Name] = true
	}
	for _, t := range opts.ExtraTransforms {
		if t.Name == "" || t.Apply == nil {
			return nil, fmt.Errorf("core: extra transform needs a name and an Apply func")
		}
		if seen[t.Name] {
			return nil, fmt.Errorf("core: duplicate transform %q", t.Name)
		}
		seen[t.Name] = true
		transforms = append(transforms, t)
	}
	for i := range opts.ExtraRelations {
		if err := opts.ExtraRelations[i].Validate(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	e := &Engine{opts: opts, lx: lx, transforms: transforms}
	e.procFP = procFingerprint(opts.resolved().Proc)
	return e, nil
}

// procFingerprint hashes the processing part of the resolved options:
// every option that changes what processing produces for a given
// source, and no other, so a mining or checking option change still
// replays warm lex artifacts. Custom Parse funcs cannot be hashed;
// their specs contribute name, pattern, and flags (documented on
// Options.Artifacts).
func procFingerprint(p procOptions) artifact.Key {
	enc, _ := json.Marshal(p) // bools, ints, and strings: cannot fail
	return artifact.NewHasher("concord/proc/v2").Int(artifact.SchemaVersion).Bytes(enc).Sum()
}

// MustNew is New for known-good options; it panics on error.
func MustNew(opts Options) *Engine {
	e, err := New(opts)
	if err != nil {
		panic(err)
	}
	return e
}

// ProcessStats summarizes a processed corpus (the per-dataset columns of
// Table 3).
type ProcessStats struct {
	// Configs is the number of configuration files that survived
	// processing.
	Configs int
	// Skipped counts sources dropped from the corpus by fault
	// containment or input guards (each with a diagnostic).
	Skipped int
	// Lines is the total number of non-blank configuration lines.
	Lines int
	// Patterns is the number of distinct extracted patterns.
	Patterns int
	// Parameters is the number of distinct (pattern, parameter) slots.
	Parameters int
}

// Process embeds and lexes every source in parallel, appending processed
// metadata lines to each configuration (§3.7). The result order matches
// the input order. It is ProcessContext with a background context.
func (e *Engine) Process(sources, meta []Source) ([]*lexer.Config, ProcessStats) {
	cfgs, st, _ := e.ProcessContext(context.Background(), sources, meta)
	return cfgs, st
}

// ProcessContext is Process with cooperative cancellation: workers stop
// within one configuration of ctx being cancelled, and the error is
// ctx.Err(). The stage is timed under the "process" span. Sources that
// panic a worker or violate input guards are dropped with diagnostics
// (delivered to Options.Diagnostics); with Options.Strict the first
// fault aborts with an error instead.
func (e *Engine) ProcessContext(ctx context.Context, sources, meta []Source) ([]*lexer.Config, ProcessStats, error) {
	dc := diag.New()
	defer e.opts.Diagnostics.Merge(dc)
	cfgs, _, st, err := e.processContext(ctx, dc, sources, meta)
	return cfgs, st, err
}

// sourceArt is one surviving configuration's artifact-cache state,
// aligned with the compacted config slice.
type sourceArt struct {
	// hash is the content hash of the raw source bytes; zero when the
	// config cannot participate in artifact caching.
	hash artifact.Key
	// lexKey is hash ⊕ procFP: the lex artifact's cache address.
	lexKey artifact.Key
	// lexHit reports the config was replayed from a lex artifact.
	lexHit bool
	// clean reports processing produced no diagnostics for this source,
	// making its downstream check result safe to persist.
	clean bool
}

// artState carries per-corpus artifact bookkeeping from processing to
// checking. Nil when no cache is attached.
type artState struct {
	per    []sourceArt
	metaFP artifact.Key
}

// processContext is the diagnostics-threaded implementation behind
// ProcessContext; per-run collectors let each Learn/Check surface only
// its own diagnostics in its result. When an artifact cache is
// attached, cleanly lexed sources are persisted and replayed by
// content hash, and the returned artState lets checkProcessedContext
// extend the warm path to per-config check results.
func (e *Engine) processContext(ctx context.Context, dc *diag.Collector, sources, meta []Source) ([]*lexer.Config, *artState, ProcessStats, error) {
	sp := e.opts.Telemetry.StartSpan(string(telemetry.StageProcess))
	defer sp.EndCount(len(sources))
	cr, err := e.newCorpusRun(dc, meta)
	if err != nil {
		return nil, nil, ProcessStats{}, err
	}
	artOn := cr.artOn
	var artSlots []sourceArt
	if artOn {
		artSlots = make([]sourceArt, len(sources))
	}
	slots := make([]*lexer.Config, len(sources))
	prog := &progressCounter{e: e, stage: telemetry.StageProcess, total: len(sources)}
	err = e.forEachCtx(ctx, dc, telemetry.StageProcess, e.opts.Parallelism, len(sources),
		func(i int) string { return sources[i].Name },
		func(i int) error {
			defer prog.tick()
			cfg, sa := e.processOneSource(dc, cr, sources[i])
			slots[i] = cfg
			if artOn {
				artSlots[i] = sa
			}
			return nil
		})
	if err != nil {
		return nil, nil, ProcessStats{}, err
	}
	cr.emitCacheStats(e)
	// Compact: sources that panicked a worker or were rejected by input
	// guards leave nil slots; survivors keep input order (and their
	// artifact state stays aligned with them).
	var cfgs []*lexer.Config
	var per []sourceArt
	var tally corpusTally
	for i, c := range slots {
		if c != nil {
			cfgs = append(cfgs, c)
			tally.add(c)
			if artOn {
				per = append(per, artSlots[i])
			}
		} else {
			tally.skipped++
		}
	}
	var arts *artState
	if artOn {
		arts = &artState{per: per, metaFP: cr.metaFP}
	}
	if e.opts.Strict {
		if err := diag.Join(dc.All()); err != nil {
			return nil, nil, ProcessStats{}, fmt.Errorf("core: strict mode: %w", err)
		}
	}
	st := tally.stats()
	e.setCorpusGauges(st)
	return cfgs, arts, st, nil
}

// corpusRun is the per-run corpus state shared by every source: the
// lexer cache, intern table, processed metadata lines, and artifact
// bookkeeping. Both the unsharded and the sharded drivers build one
// and thread it through the same per-source helpers, so the two paths
// cannot drift.
type corpusRun struct {
	lim       format.Limits
	cache     *lexer.Cache
	interns   *intern.Table
	metaLines []lexer.Line
	// artOn reports the artifact cache participates in this run.
	artOn  bool
	metaFP artifact.Key
}

// newCorpusRun resolves limits, lexer cache, and intern table for one
// run and processes the metadata corpus.
func (e *Engine) newCorpusRun(dc *diag.Collector, meta []Source) (*corpusRun, error) {
	lim := e.opts.Limits.WithDefaults()
	e.opts.Telemetry.SetGauge("limits.max_file_size", float64(lim.MaxFileSize))
	e.opts.Telemetry.SetGauge("limits.max_line_len", float64(lim.MaxLineLen))
	e.opts.Telemetry.SetGauge("limits.max_depth", float64(lim.MaxDepth))
	e.opts.Telemetry.SetGauge("limits.max_lines", float64(lim.MaxLines))
	// The lexer cache and intern table normally live for exactly one
	// processed corpus: entries are only valid for this engine's lexer,
	// and dense pattern IDs are only meaningful against this run's
	// table. A resident engine (service mode) instead supplies
	// long-lived instances shared across requests: both structures are
	// concurrency-safe and append-only, so later corpora simply start
	// warm, with identical results.
	cr := &corpusRun{lim: lim}
	if e.resident != nil {
		cr.cache, cr.interns = e.resident.cache, e.resident.interns
	} else {
		if e.opts.LexCacheSize >= 0 {
			cr.cache = lexer.NewCache(e.opts.LexCacheSize)
		}
		cr.interns = intern.NewTable()
	}
	metaLines, err := e.processMeta(dc, lim, meta, cr.cache, cr.interns)
	if err != nil {
		return nil, err
	}
	cr.metaLines = metaLines
	cr.artOn = e.opts.Artifacts != nil
	if cr.artOn {
		mh := artifact.NewHasher("concord/meta/v1")
		for _, m := range meta {
			mh.Str(m.Name).Bytes(m.Text)
		}
		cr.metaFP = mh.Sum()
	}
	return cr, nil
}

// emitCacheStats flushes the run's lexer-cache counters to telemetry.
func (cr *corpusRun) emitCacheStats(e *Engine) {
	if cr.cache == nil {
		return
	}
	hits, misses := cr.cache.Stats()
	e.opts.Telemetry.Add("lex.cache_hits", hits)
	e.opts.Telemetry.Add("lex.cache_misses", misses)
}

// processOneSource lexes one source against the corpus state,
// replaying it from the artifact cache when possible. A nil config
// means the source was dropped by an input guard (the diagnostic is
// already in dc). Panics propagate to the caller's containment.
func (e *Engine) processOneSource(dc *diag.Collector, cr *corpusRun, src Source) (*lexer.Config, sourceArt) {
	faultinject.At("core.process.source", src.Name)
	var sa sourceArt
	if cr.artOn {
		var cfg *lexer.Config
		var ok bool
		if cfg, sa, ok = e.loadLexArtifact(dc, src, cr.interns); ok {
			cfg.Lines = append(cfg.Lines, cr.metaLines...)
			return cfg, sa
		}
	}
	// A per-source collector distinguishes "this source degraded"
	// from the shared run state: only sources that process without
	// any diagnostic are persisted to the cache.
	sdc := dc
	if cr.artOn {
		sdc = diag.New()
	}
	cfg := format.Process(src.Name, src.Text, e.lx,
		format.Options{Embed: e.opts.ContextEmbedding, Limits: cr.lim,
			Telemetry: e.opts.Telemetry, Diagnostics: sdc,
			Cache: cr.cache, Interns: cr.interns})
	if cr.artOn {
		dc.Merge(sdc)
	}
	if cfg.Skipped {
		return nil, sa // input guards recorded the diagnostic
	}
	if cr.artOn {
		sa.clean = sdc.Len() == 0
		if sa.clean {
			// Encode before meta lines are appended: metadata is
			// corpus state, not source content, and is re-applied
			// (and fingerprinted) on every run.
			if payload, ok := artifact.EncodeConfig(&cfg); ok {
				if serr := e.opts.Artifacts.Store(artifact.KindLex, sa.lexKey, payload); serr != nil {
					e.opts.Telemetry.Add("artifact.store_errors", 1)
				} else {
					e.opts.Telemetry.Add("artifact.bytes_written", int64(len(payload)))
				}
			}
		}
	}
	cfg.Lines = append(cfg.Lines, cr.metaLines...)
	return &cfg, sa
}

// corpusTally accumulates a corpus's ProcessStats one surviving
// configuration at a time. Tallies of disjoint slices of the corpus
// (shards) merge, so every driver reports its stats through this one
// type.
type corpusTally struct {
	configs, skipped, lines int
	// patterns maps each distinct pattern to its largest parameter count.
	patterns map[string]int
}

// add folds one surviving configuration into the tally.
func (t *corpusTally) add(cfg *lexer.Config) {
	t.configs++
	t.lines += cfg.SourceLines
	for i := range cfg.Lines {
		line := &cfg.Lines[i]
		if !line.Meta {
			t.addPattern(line.Pattern, len(line.Params))
		}
	}
}

func (t *corpusTally) addPattern(p string, params int) {
	if t.patterns == nil {
		t.patterns = make(map[string]int)
	}
	if n, ok := t.patterns[p]; !ok || params > n {
		t.patterns[p] = params
	}
}

// merge folds another slice's tally into t.
func (t *corpusTally) merge(o *corpusTally) {
	t.configs += o.configs
	t.skipped += o.skipped
	t.lines += o.lines
	for p, n := range o.patterns {
		t.addPattern(p, n)
	}
}

// stats returns the tally as ProcessStats.
func (t *corpusTally) stats() ProcessStats {
	st := ProcessStats{Configs: t.configs, Skipped: t.skipped, Lines: t.lines, Patterns: len(t.patterns)}
	for _, n := range t.patterns {
		st.Parameters += n
	}
	return st
}

// setCorpusGauges publishes a run's corpus statistics to telemetry.
func (e *Engine) setCorpusGauges(st ProcessStats) {
	e.opts.Telemetry.SetGauge("corpus.configs", float64(st.Configs))
	e.opts.Telemetry.SetGauge("corpus.skipped", float64(st.Skipped))
	e.opts.Telemetry.SetGauge("corpus.lines", float64(st.Lines))
	e.opts.Telemetry.SetGauge("corpus.patterns", float64(st.Patterns))
}

// loadLexArtifact attempts to replay one source from the lex artifact
// cache. It always returns the source's artifact state (content hash
// and lex key) so the cold path can persist what it produces; ok
// reports whether a usable cached config was returned. A corrupt entry
// degrades to a miss with a warning diagnostic.
func (e *Engine) loadLexArtifact(dc *diag.Collector, src Source, interns *intern.Table) (*lexer.Config, sourceArt, bool) {
	sa := sourceArt{hash: artifact.HashBytes("concord/src/v1", src.Text)}
	sa.lexKey = artifact.NewHasher("concord/lex/v1").Key(sa.hash).Key(e.procFP).Sum()
	payload, err := e.opts.Artifacts.Load(artifact.KindLex, sa.lexKey)
	if err != nil {
		if errors.Is(err, artifact.ErrMiss) {
			e.opts.Telemetry.Add("artifact.cache_misses", 1)
		} else {
			e.invalidateArtifact(dc, src.Name, err)
		}
		return nil, sa, false
	}
	cfg, derr := artifact.DecodeConfig(payload, src.Name, interns)
	if derr != nil {
		e.invalidateArtifact(dc, src.Name, derr)
		return nil, sa, false
	}
	e.opts.Telemetry.Add("artifact.cache_hits", 1)
	e.opts.Telemetry.Add("artifact.bytes_read", int64(len(payload)))
	sa.lexHit = true
	// An artifact exists only for sources that processed cleanly, so a
	// replayed config is clean by construction.
	sa.clean = true
	return cfg, sa, true
}

// invalidateArtifact records a corrupt or undecodable cache entry: one
// warning diagnostic, an invalidation counter tick, and a miss (the
// caller falls back to the cold path, which overwrites the bad entry).
func (e *Engine) invalidateArtifact(dc *diag.Collector, source string, err error) {
	e.opts.Telemetry.Add("artifact.invalidations", 1)
	e.opts.Telemetry.Add("artifact.cache_misses", 1)
	dc.Addf(diag.SevWarn, "artifact", source, 0,
		"cache entry unusable, falling back to cold path: %v", err)
}

// processMeta embeds and lexes metadata files into lines tagged with the
// @meta prefix, so metadata patterns are distinguishable and relations
// against them read like the paper's example
// (@meta/nfInfos/vrfName/vlanId [a:num]). A metadata file that panics
// processing or trips an input guard is skipped with a diagnostic
// (strict: aborts with an error).
func (e *Engine) processMeta(dc *diag.Collector, lim format.Limits, meta []Source, cache *lexer.Cache, interns *intern.Table) ([]lexer.Line, error) {
	var out []lexer.Line
	for _, m := range meta {
		lines, err := e.processOneMeta(dc, lim, m, cache, interns)
		if err != nil {
			return nil, err
		}
		out = append(out, lines...)
	}
	return out, nil
}

func (e *Engine) processOneMeta(dc *diag.Collector, lim format.Limits, m Source, cache *lexer.Cache, interns *intern.Table) (out []lexer.Line, err error) {
	defer func() {
		if r := recover(); r != nil {
			d := diag.FromPanic(string(telemetry.StageProcess), m.Name, r)
			if e.opts.Strict {
				out, err = nil, fmt.Errorf("core: strict mode: %w", d.AsError())
				return
			}
			dc.Add(d)
			e.opts.Telemetry.Add("diag.panics", 1)
			out = nil
		}
	}()
	faultinject.At("core.process.meta", m.Name)
	cfg := format.Process(m.Name, m.Text, e.lx,
		format.Options{Embed: e.opts.ContextEmbedding, Limits: lim, Diagnostics: dc,
			Cache: cache, Interns: interns})
	if cfg.Skipped {
		return nil, nil
	}
	for _, line := range cfg.Lines {
		line.Meta = true
		line.Pattern = "@meta" + line.Pattern
		line.Display = "@meta" + line.Display
		line.Text = "@meta" + line.Text
		// The prefixed pattern is a new string; the ID assigned during
		// format processing refers to the unprefixed one.
		if interns != nil {
			line.PatternID = interns.ID(line.Pattern)
		} else {
			line.PatternID = 0
		}
		out = append(out, line)
	}
	return out, nil
}

// progress serializes Options.Progress callbacks.
func (e *Engine) progress(stage telemetry.Stage, done, total int) {
	if e.opts.Progress == nil {
		return
	}
	e.progressMu.Lock()
	e.opts.Progress(stage, done, total)
	e.progressMu.Unlock()
}

// forEachCtx runs fn(0..n-1) on a pool of at most workers goroutines,
// stopping within one item of ctx being cancelled. Workers never start
// new items after cancellation; the first non-nil ctx error is returned
// once all workers have drained. It is the engine's one worker pool:
// the unsharded stages run it over configurations with Parallelism
// workers, the sharded drivers over shards with shardWorkers. Progress
// is the caller's: fn ticks its stage's progressCounter.
//
// Panics inside fn are contained per item: in lenient mode (the
// default) a recovered panic becomes an error diagnostic in dc
// attributed to name(i) — with stack captured — and the remaining items
// continue. With Options.Strict the first panic aborts the stage (the
// remaining items are never started) and is returned as an error, so
// tests and CI keep fail-fast semantics. An error returned by fn aborts
// the run the same way in either mode.
func (e *Engine) forEachCtx(ctx context.Context, dc *diag.Collector, stage telemetry.Stage, workers, n int, name func(int) string, fn func(i int) error) error {
	workers = min(workers, n)
	ictx, abort := context.WithCancel(ctx)
	defer abort()
	var failOnce sync.Once
	var failErr error
	fail := func(err error) {
		failOnce.Do(func() {
			failErr = err
			abort()
		})
	}
	call := func(i int) {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			d := diag.FromPanic(string(stage), name(i), r)
			if e.opts.Strict {
				fail(fmt.Errorf("core: %s stage aborted (strict): %w", stage, d.AsError()))
				return
			}
			dc.Add(d)
			e.opts.Telemetry.Add("diag.panics", 1)
		}()
		if err := fn(i); err != nil {
			fail(err)
		}
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ictx.Err() != nil {
				break
			}
			call(i)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					if ictx.Err() != nil {
						continue // drain the channel without starting new work
					}
					call(i)
				}
			}()
		}
	feed:
		for i := 0; i < n; i++ {
			select {
			case next <- i:
			case <-ictx.Done():
				break feed
			}
		}
		close(next)
		wg.Wait()
	}
	// failErr is published before abort() and read after wg.Wait (or
	// after the sequential loop), so the read is race-free.
	if failErr != nil {
		return failErr
	}
	return ctx.Err()
}

// progressCounter reports monotonic (done, total) progress for one
// stage. Every driver ticks one per unit of work — the unsharded pools
// per configuration, the sharded drivers from every shard — so
// Options.Progress observes one global count per stage.
type progressCounter struct {
	e     *Engine
	stage telemetry.Stage
	total int
	done  int // guarded by e.progressMu
}

// tick counts one unit of work and reports the new count. Counting and
// reporting share the engine's progress lock: counting outside it let
// two workers report their counts out of order.
func (p *progressCounter) tick() {
	if p.e.opts.Progress == nil {
		return
	}
	p.e.progressMu.Lock()
	defer p.e.progressMu.Unlock()
	p.done++
	p.e.opts.Progress(p.stage, p.done, p.total)
}

// LearnResult is the output of Learn.
type LearnResult struct {
	// Set is the learned (and, if enabled, minimized) contract set.
	Set *contracts.Set
	// Minimization reports the contract reduction (§3.6); zero-valued
	// when minimization is disabled.
	Minimization minimize.Result
	// Stats summarizes the processed corpus.
	Stats ProcessStats
	// Diagnostics lists this run's contained faults and input-guard
	// degradations; empty on a clean run.
	Diagnostics []diag.Diagnostic
}

// Learn processes the training sources and mines a contract set. It is
// LearnContext with a background context.
func (e *Engine) Learn(sources, meta []Source) (*LearnResult, error) {
	return e.LearnContext(context.Background(), sources, meta)
}

// LearnContext runs the full learning pipeline — process, mine,
// minimize — under ctx. Cancellation is cooperative: every worker loop
// and per-category miner checks the context and the pipeline aborts
// within one unit of work, returning ctx.Err(). Stage timings,
// allocation deltas, and miner counters go to Options.Telemetry.
// Faults are contained per source: a panicked or guard-rejected source
// is dropped with a diagnostic (in the result and Options.Diagnostics)
// and learning proceeds on the survivors; Options.Strict aborts on the
// first fault instead.
func (e *Engine) LearnContext(ctx context.Context, sources, meta []Source) (*LearnResult, error) {
	dc := diag.New()
	defer e.opts.Diagnostics.Merge(dc)
	var res *LearnResult
	var err error
	if e.opts.shardingActive() {
		res, err = e.learnShardedContext(ctx, dc, sources, meta)
	} else {
		var cfgs []*lexer.Config
		var pstats ProcessStats
		cfgs, _, pstats, err = e.processContext(ctx, dc, sources, meta)
		if err != nil {
			return nil, err
		}
		res, err = e.learnProcessedContext(ctx, dc, cfgs, pstats)
	}
	if err != nil {
		return nil, err
	}
	res.Diagnostics = dc.Sorted()
	return res, nil
}

// LearnProcessed mines contracts from already-processed configurations,
// for callers that processed once and learn repeatedly (e.g. ablations).
func (e *Engine) LearnProcessed(cfgs []*lexer.Config, pstats ProcessStats) (*LearnResult, error) {
	return e.LearnProcessedContext(context.Background(), cfgs, pstats)
}

// LearnProcessedContext is LearnProcessed under a cancellable context.
func (e *Engine) LearnProcessedContext(ctx context.Context, cfgs []*lexer.Config, pstats ProcessStats) (*LearnResult, error) {
	dc := diag.New()
	defer e.opts.Diagnostics.Merge(dc)
	res, err := e.learnProcessedContext(ctx, dc, cfgs, pstats)
	if err != nil {
		return nil, err
	}
	res.Diagnostics = dc.Sorted()
	return res, nil
}

// newLearnMiner builds the run's miner from the engine options; both the
// unsharded and the sharded learn drivers construct it here, so the two
// paths mine under identical parameters by construction.
func (e *Engine) newLearnMiner(dc *diag.Collector, progress func(done, total int)) *mining.Miner {
	return mining.New(mining.Options{
		Support:          e.opts.Support,
		Confidence:       e.opts.Confidence,
		ScoreThreshold:   e.opts.ScoreThreshold,
		MaxFanout:        e.opts.MaxFanout,
		Categories:       e.categorySet(),
		ConstantLearning: e.opts.ConstantLearning,
		Parallelism:      e.opts.Parallelism,
		Transforms:       e.transforms,
		ExtraRelations:   e.opts.ExtraRelations,
		Telemetry:        e.opts.Telemetry,
		Diagnostics:      dc,
		Strict:           e.opts.Strict,
		Progress:         progress,
	})
}

func (e *Engine) learnProcessedContext(ctx context.Context, dc *diag.Collector, cfgs []*lexer.Config, pstats ProcessStats) (*LearnResult, error) {
	var mineProgress func(done, total int)
	if e.opts.Progress != nil {
		prog := &progressCounter{e: e, stage: telemetry.StageMine, total: len(cfgs)}
		mineProgress = func(int, int) { prog.tick() }
	}
	m := e.newLearnMiner(dc, mineProgress)
	sp := e.opts.Telemetry.StartSpan(string(telemetry.StageMine))
	set, err := m.MineContext(ctx, cfgs)
	sp.EndCount(len(cfgs))
	if err != nil {
		return nil, err
	}
	return e.finishLearn(ctx, dc, set, pstats)
}

// finishLearn is the learn pipeline's shared tail: minimization (with
// containment) and the learned-set gauge.
func (e *Engine) finishLearn(ctx context.Context, dc *diag.Collector, set *contracts.Set, pstats ProcessStats) (*LearnResult, error) {
	res := &LearnResult{Set: set, Stats: pstats}
	if e.opts.Minimize {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		e.progress(telemetry.StageMinimize, 0, 1)
		minimized, minRes, err := e.minimizeContained(dc, set)
		if err != nil {
			return nil, err
		}
		res.Set = minimized
		res.Minimization = minRes
		e.progress(telemetry.StageMinimize, 1, 1)
	}
	e.opts.Telemetry.SetGauge("learn.contracts", float64(res.Set.Len()))
	return res, nil
}

// minimizeContained runs contract minimization with panic containment:
// a panic degrades to the unminimized set with a diagnostic (strict:
// an error), so a minimizer bug never costs the whole learned set.
func (e *Engine) minimizeContained(dc *diag.Collector, set *contracts.Set) (out *contracts.Set, res minimize.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			d := diag.FromPanic(string(telemetry.StageMinimize), "", r)
			if e.opts.Strict {
				out, res, err = nil, minimize.Result{}, fmt.Errorf("core: strict mode: %w", d.AsError())
				return
			}
			dc.Add(d)
			e.opts.Telemetry.Add("diag.panics", 1)
			out, res = set, minimize.Result{}
		}
	}()
	faultinject.At("core.minimize", "")
	minimized, minRes := minimize.SetInstrumented(set, e.opts.Telemetry)
	return minimized, minRes, nil
}

func (e *Engine) categorySet() map[contracts.Category]bool {
	if len(e.opts.Categories) == 0 {
		return nil
	}
	m := make(map[contracts.Category]bool, len(e.opts.Categories))
	for _, c := range e.opts.Categories {
		m[c] = true
	}
	return m
}

// ConfigCoverage reports coverage for a single configuration.
type ConfigCoverage struct {
	Name        string
	SourceLines int
	Covered     int
	ByCategory  map[contracts.Category]int
}

// CoverageSummary aggregates coverage across a corpus (the data behind
// Tables 4 and 5).
type CoverageSummary struct {
	TotalLines   int
	CoveredLines int
	ByCategory   map[contracts.Category]int
	PerConfig    []ConfigCoverage
}

// Percent returns total line coverage in [0, 100].
func (s *CoverageSummary) Percent() float64 {
	if s.TotalLines == 0 {
		return 0
	}
	return 100 * float64(s.CoveredLines) / float64(s.TotalLines)
}

// CategoryPercent returns the coverage percentage attributable to one
// contract category.
func (s *CoverageSummary) CategoryPercent(cat contracts.Category) float64 {
	if s.TotalLines == 0 {
		return 0
	}
	return 100 * float64(s.ByCategory[cat]) / float64(s.TotalLines)
}

// CheckResult is the output of Check.
type CheckResult struct {
	// Violations lists every contract violation, sorted by file and
	// line.
	Violations []contracts.Violation
	// Coverage summarizes which configuration lines the contract set
	// tests (§3.9).
	Coverage CoverageSummary
	// Stats summarizes the processed corpus.
	Stats ProcessStats
	// Diagnostics lists this run's contained faults and input-guard
	// degradations; empty on a clean run.
	Diagnostics []diag.Diagnostic
}

// Check processes the test sources and evaluates the contract set
// against them, computing violations and coverage in parallel. It is
// CheckContext with a background context.
func (e *Engine) Check(set *contracts.Set, sources, meta []Source) (*CheckResult, error) {
	return e.CheckContext(context.Background(), set, sources, meta)
}

// CheckContext runs the checking pipeline under ctx, aborting within
// one configuration of cancellation with ctx.Err(). Stage timings and
// checker counters go to Options.Telemetry. Faults are contained per
// source and per contract: a panicking contract is skipped for that
// configuration with a diagnostic; Options.Strict aborts instead.
// With Options.Shards > 1 the corpus runs through the fleet-scale
// sharded driver (see shard.go) with byte-identical results.
func (e *Engine) CheckContext(ctx context.Context, set *contracts.Set, sources, meta []Source) (*CheckResult, error) {
	dc := diag.New()
	defer e.opts.Diagnostics.Merge(dc)
	if e.opts.shardingActive() {
		res, err := e.checkShardedContext(ctx, dc, set, sources, meta, nil)
		if err != nil {
			return nil, err
		}
		res.Diagnostics = dc.Sorted()
		return res, nil
	}
	cfgs, arts, pstats, err := e.processContext(ctx, dc, sources, meta)
	if err != nil {
		return nil, err
	}
	res, err := e.checkProcessedContext(ctx, dc, set, cfgs, pstats, arts, nil)
	if err != nil {
		return nil, err
	}
	res.Diagnostics = dc.Sorted()
	return res, nil
}

// CheckProcessed evaluates a contract set against already-processed
// configurations.
func (e *Engine) CheckProcessed(set *contracts.Set, cfgs []*lexer.Config, pstats ProcessStats) (*CheckResult, error) {
	return e.CheckProcessedContext(context.Background(), set, cfgs, pstats)
}

// CheckProcessedContext is CheckProcessed under a cancellable context.
func (e *Engine) CheckProcessedContext(ctx context.Context, set *contracts.Set, cfgs []*lexer.Config, pstats ProcessStats) (*CheckResult, error) {
	dc := diag.New()
	defer e.opts.Diagnostics.Merge(dc)
	res, err := e.checkProcessedContext(ctx, dc, set, cfgs, pstats, nil, nil)
	if err != nil {
		return nil, err
	}
	res.Diagnostics = dc.Sorted()
	return res, nil
}

// covCount is one configuration's coverage reduced to counts — the
// form both the cold path and a replayed check artifact can produce
// identically.
type covCount struct {
	sourceLines int
	covered     int
	byCategory  map[contracts.Category]int
}

// checkFingerprint hashes everything besides a config's own content
// that determines its check result: the check inputs (see
// checkInputsHasher) plus the metadata corpus. Any mismatch makes every
// check-artifact lookup miss, so replay is only ever exact.
func (e *Engine) checkFingerprint(set *contracts.Set, metaFP artifact.Key) (artifact.Key, bool) {
	h, err := e.checkInputsHasher("concord/check/v1", set)
	if err != nil {
		return artifact.Key{}, false
	}
	return h.Key(metaFP).Sum(), true
}

// checkInputsHasher starts a domain-separated hash over the inputs
// every check-result fingerprint shares: the processing options
// (procFP), the contract set's canonical JSON, and the checker's
// transform and relation registries. Both the check-artifact key and
// the registry fingerprint build on it, so an option that changes check
// output is hashed here, once.
func (e *Engine) checkInputsHasher(domain string, set *contracts.Set) (*artifact.Hasher, error) {
	setJSON, err := json.Marshal(set)
	if err != nil {
		return nil, err
	}
	h := artifact.NewHasher(domain)
	h.Key(e.procFP).Bytes(setJSON)
	h.Int(len(e.transforms))
	for _, t := range e.transforms {
		h.Str(t.Name)
	}
	h.Int(len(e.opts.ExtraRelations))
	for _, d := range e.opts.ExtraRelations {
		h.Str(string(d.Rel))
	}
	return h, nil
}

// checkKey is the cache address of one configuration's check result:
// content hash ⊕ run/contract fingerprint ⊕ name.
func checkKey(hash, checkFP artifact.Key, name string) artifact.Key {
	return artifact.NewHasher("concord/checkkey/v1").
		Key(hash).Key(checkFP).Str(name).Sum()
}

// checkedConfig is one configuration's check outcome: violations,
// coverage counts, the unique-contract contribution when requested, and
// whether the result was replayed from a check artifact.
type checkedConfig struct {
	violations []contracts.Violation
	cov        *covCount
	contrib    map[string][]contracts.UniqueSite
	hit        bool
}

// checkRow is one surviving configuration's place in a check report, as
// both check drivers hand it to finishCheck in corpus order: its name
// and artifact state, plus its outcome (zero when the check panicked
// and was contained).
type checkRow struct {
	name string
	art  sourceArt
	checkedConfig
}

// checkOne evaluates one configuration: replayed from its check
// artifact on a warm run (warm, with a content hash in sa), else checked
// fresh (and, on a warm run, persisted when the result is certainly
// complete). wantContrib additionally extracts the configuration's
// unique-contract value multiset so the caller can merge
// cross-configuration uniqueness without retaining the config. Panics
// propagate to the caller's containment.
func (e *Engine) checkOne(dc *diag.Collector, checker *contracts.Checker, cfg *lexer.Config, sa sourceArt, warm bool, checkFP artifact.Key, wantContrib bool) checkedConfig {
	faultinject.At("core.check.config", cfg.Name)
	warmKey := warm && !sa.hash.IsZero()
	var key artifact.Key
	if warmKey {
		key = checkKey(sa.hash, checkFP, cfg.Name)
		payload, lerr := e.opts.Artifacts.Load(artifact.KindCheck, key)
		switch {
		case lerr == nil:
			entry, derr := artifact.DecodeCheckEntry(payload)
			if derr == nil {
				e.opts.Telemetry.Add("artifact.cache_hits", 1)
				e.opts.Telemetry.Add("artifact.bytes_read", int64(len(payload)))
				return checkedConfig{
					violations: entry.Violations,
					cov:        &covCount{entry.SourceLines, entry.Covered, entry.ByCategory},
					contrib:    entry.Unique,
					hit:        true,
				}
			}
			e.invalidateArtifact(dc, cfg.Name, derr)
		case errors.Is(lerr, artifact.ErrMiss):
			e.opts.Telemetry.Add("artifact.cache_misses", 1)
		default:
			e.invalidateArtifact(dc, cfg.Name, lerr)
		}
	}
	// Check through a fork with a private collector so the store below
	// judges only this config's diagnostics: other workers grow the
	// shared collector concurrently, and their warnings must not veto
	// this config's (repair) store. The deferred merge also runs when a
	// panic unwinds to the caller's containment.
	var cdc *diag.Collector
	if warmKey {
		cdc = diag.New()
		checker = checker.ForRequest(e.opts.Telemetry, cdc)
		defer dc.Merge(cdc)
	}
	out := checkedConfig{violations: checker.Check(cfg)}
	if cov := checker.Coverage(cfg); cov != nil {
		cc := &covCount{cov.SourceLines, len(cov.Covered), make(map[contracts.Category]int, len(cov.ByCategory))}
		for cat, lines := range cov.ByCategory {
			cc.byCategory[cat] = len(lines)
		}
		out.cov = cc
	}
	if wantContrib {
		out.contrib = checker.UniqueContributions(cfg)
	}
	// Persist only results that are certainly complete: the config
	// processed cleanly, coverage succeeded, and checking it recorded no
	// diagnostics.
	if warmKey && sa.clean && out.cov != nil && cdc.Len() == 0 {
		entry := &artifact.CheckEntry{
			Violations:  out.violations,
			SourceLines: out.cov.sourceLines,
			Covered:     out.cov.covered,
			ByCategory:  out.cov.byCategory,
			Unique:      out.contrib,
		}
		payload := artifact.EncodeCheckEntry(entry)
		if serr := e.opts.Artifacts.Store(artifact.KindCheck, key, payload); serr != nil {
			e.opts.Telemetry.Add("artifact.store_errors", 1)
		} else {
			e.opts.Telemetry.Add("artifact.bytes_written", int64(len(payload)))
		}
	}
	return out
}

// checkProcessedContext evaluates the set against the processed
// configurations. checker, when non-nil, is a pre-compiled checker to
// reuse (the registry's compile-once-serve-many path); nil builds one
// for this run.
func (e *Engine) checkProcessedContext(ctx context.Context, dc *diag.Collector, set *contracts.Set, cfgs []*lexer.Config, pstats ProcessStats, arts *artState, checker *contracts.Checker) (*CheckResult, error) {
	if checker == nil {
		checker = e.newChecker(set, dc, lexer.CommonInterns(cfgs))
	}
	warm := arts != nil && e.opts.Incremental
	var checkFP artifact.Key
	if warm {
		checkFP, warm = e.checkFingerprint(set, arts.metaFP)
	}
	rows := make([]checkRow, len(cfgs))
	for i, cfg := range cfgs {
		rows[i].name = cfg.Name
		if arts != nil {
			rows[i].art = arts.per[i]
		}
	}
	prog := &progressCounter{e: e, stage: telemetry.StageCheck, total: len(cfgs)}
	sp := e.opts.Telemetry.StartSpan(string(telemetry.StageCheck))
	err := e.forEachCtx(ctx, dc, telemetry.StageCheck, e.opts.Parallelism, len(cfgs),
		func(i int) string { return cfgs[i].Name },
		func(i int) error {
			defer prog.tick()
			rows[i].checkedConfig = e.checkOne(dc, checker, cfgs[i], rows[i].art, warm, checkFP, warm)
			return nil
		})
	sp.EndCount(len(cfgs))
	if err != nil {
		return nil, err
	}
	var unique []contracts.Violation
	if warm {
		// The incremental global-uniqueness pass: cached configs
		// contribute their persisted value multisets, fresh ones the
		// multisets extracted above, and the combiner reproduces
		// CheckUniqueAcross exactly.
		combiner := checker.UniqueCombiner()
		acc := combiner.NewAccumulator()
		for i := range rows {
			contrib := rows[i].contrib
			if contrib == nil {
				// The worker panicked before extracting; recover the
				// contribution so cross-config uniqueness matches the
				// cold path, which always scans every surviving config.
				contrib = checker.UniqueContributions(cfgs[i])
			}
			acc.AddSites(rows[i].name, contrib)
		}
		unique = combiner.Reduce([]*contracts.UniqueAccumulator{acc})
	} else {
		unique = checker.CheckUniqueAcross(cfgs)
	}
	return e.finishCheck(rows, unique, pstats, warm, checkFP), nil
}

// finishCheck is the check pipeline's shared tail for both drivers: it
// concatenates the per-config violations (rows in corpus order) with
// the cross-config unique violations, sorts them into report order,
// builds the coverage summary, and on a warm run writes the artifact
// manifest.
func (e *Engine) finishCheck(rows []checkRow, unique []contracts.Violation, pstats ProcessStats, warm bool, checkFP artifact.Key) *CheckResult {
	res := &CheckResult{Stats: pstats}
	for i := range rows {
		res.Violations = append(res.Violations, rows[i].violations...)
	}
	res.Violations = append(res.Violations, unique...)
	contracts.SortViolations(res.Violations)

	res.Coverage.ByCategory = make(map[contracts.Category]int)
	for i := range rows {
		cc := rows[i].cov
		if cc == nil {
			// This configuration's check panicked and was contained;
			// the diagnostic is already recorded.
			continue
		}
		out := ConfigCoverage{
			Name:        rows[i].name,
			SourceLines: cc.sourceLines,
			Covered:     cc.covered,
			ByCategory:  make(map[contracts.Category]int, len(cc.byCategory)),
		}
		for cat, n := range cc.byCategory {
			out.ByCategory[cat] = n
			res.Coverage.ByCategory[cat] += n
		}
		res.Coverage.TotalLines += cc.sourceLines
		res.Coverage.CoveredLines += cc.covered
		res.Coverage.PerConfig = append(res.Coverage.PerConfig, out)
	}
	if warm {
		m := &artifact.Manifest{
			Schema:     artifact.SchemaVersion,
			OptionsFP:  e.procFP.Hex(),
			ContractFP: checkFP.Hex(),
		}
		for i := range rows {
			m.Configs = append(m.Configs, artifact.ManifestEntry{
				Name:        rows[i].name,
				ContentHash: rows[i].art.hash.Hex(),
				LexHit:      rows[i].art.lexHit,
				CheckHit:    rows[i].hit,
			})
		}
		if merr := e.opts.Artifacts.WriteManifest(m); merr != nil {
			e.opts.Telemetry.Add("artifact.store_errors", 1)
		}
	}
	return res
}

// newChecker builds the shared checker for a check or coverage run.
// The contract set is compiled once here; the worker pool then shares
// the compiled set (pattern interning, category/anchor buckets, cache
// slot layout) across every configuration instead of re-deriving
// per-worker state.
func (e *Engine) newChecker(set *contracts.Set, dc *diag.Collector, interns *intern.Table) *contracts.Checker {
	return contracts.NewChecker(set,
		contracts.WithTransforms(e.transforms),
		contracts.WithRelations(e.opts.ExtraRelations),
		contracts.WithTelemetry(e.opts.Telemetry),
		contracts.WithDiagnostics(dc),
		contracts.WithStrict(e.opts.Strict),
		contracts.WithInterns(interns))
}

// Transforms exposes the default transformation registry for callers
// that render or re-evaluate contracts.
func Transforms() []relations.Transform { return relations.DefaultTransforms() }
