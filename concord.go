// Package concord learns and checks network configuration contracts,
// reproducing the system from "Concord: Learning Network Configuration
// Contracts" (EuroSys 2026).
//
// Contracts are lightweight syntactic rules checked locally against each
// configuration file: presence of required lines, line ordering,
// parameter types, arithmetic sequences, global uniqueness, and
// relational dependencies such as "every interface address is permitted
// by some prefix-list entry". Concord learns them automatically from
// example configurations (Learn) and evaluates them against new or
// changed configurations to localize likely bugs (Check).
//
// Quick start:
//
//	training, _ := concord.LoadGlob("configs/*.cfg")
//	result, _ := concord.Learn(training, nil, concord.DefaultOptions())
//	report, _ := concord.Check(result.Set, changed, nil, concord.DefaultOptions())
//	for _, v := range report.Violations {
//	    fmt.Printf("%s: %s\n", v.Location(), v.Detail)
//	}
//
// See the examples directory for runnable programs and cmd/concord for
// the command-line interface.
package concord

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"concord/internal/artifact"
	"concord/internal/contracts"
	"concord/internal/core"
	"concord/internal/diag"
	"concord/internal/lexer"
	"concord/internal/netdata"
	"concord/internal/relations"
	"concord/internal/server"
	"concord/internal/telemetry"
	"concord/internal/workpool"
)

// Re-exported types: the engine's options and inputs, the contract
// model, and results. Aliases keep the public API in one import path
// while the implementation lives in internal packages.
type (
	// Options configures learning and checking (support, confidence,
	// score threshold, parallelism, context embedding, constant
	// learning, minimization, category filter, user lexer tokens).
	Options = core.Options
	// Source is one input file (configuration or metadata).
	Source = core.Source
	// Engine runs the learn/check pipelines.
	Engine = core.Engine
	// LearnResult carries the learned contract set, minimization
	// statistics, and corpus statistics.
	LearnResult = core.LearnResult
	// CheckResult carries violations and coverage.
	CheckResult = core.CheckResult
	// ProcessStats summarizes a processed corpus.
	ProcessStats = core.ProcessStats
	// CoverageSummary aggregates per-line coverage.
	CoverageSummary = core.CoverageSummary

	// ContractSet is a collection of contracts with JSON serialization.
	ContractSet = contracts.Set
	// Contract is one learned or hand-written contract.
	Contract = contracts.Contract
	// Category names a contract category.
	Category = contracts.Category
	// Violation is one contract failure localized to a line.
	Violation = contracts.Violation
	// Stats is the statistical evidence behind a contract.
	Stats = contracts.Stats

	// TokenSpec extends the lexer with user-defined token types.
	TokenSpec = lexer.TokenSpec
	// Transform is a named data transformation used by relational
	// contracts; custom transforms plug in via Options.ExtraTransforms.
	Transform = relations.Transform
	// RelationDefinition is a user-defined relation (evaluation function
	// plus witness index); custom relations plug in via
	// Options.ExtraRelations.
	RelationDefinition = relations.Definition
	// Rel names a relation in contracts.
	Rel = relations.Rel
	// RelationIndex is the witness search structure a custom relation
	// supplies.
	RelationIndex = relations.Index
	// RelationEntry is one indexed witness (source + value).
	RelationEntry = relations.Entry
	// RelationSource identifies where a witness value came from.
	RelationSource = relations.Source

	// Value is a typed configuration value (the operand of relations and
	// transforms). The concrete types below cover the built-in kinds.
	Value = netdata.Value
	// Num is an arbitrary-precision integer value.
	Num = netdata.Num
	// Str is a free-form string value (also the usual transform result).
	Str = netdata.Str
	// IP is an IPv4 or IPv6 address value.
	IP = netdata.IP
	// Prefix is an IPv4 or IPv6 prefix value.
	Prefix = netdata.Prefix
	// MAC is a hardware address value.
	MAC = netdata.MAC

	// Recorder collects pipeline telemetry: stage spans (wall time +
	// allocation deltas), counters, and gauges. Attach one via
	// Options.Telemetry and snapshot it after Learn/Check.
	Recorder = telemetry.Recorder
	// TelemetryReport is a JSON-serializable recorder snapshot (the
	// schema behind concord's --metrics-json output).
	TelemetryReport = telemetry.Report
	// TelemetrySpan is one finished span in a report.
	TelemetrySpan = telemetry.SpanReport
	// Stage names a pipeline stage, used by Options.Progress callbacks
	// and span names.
	Stage = telemetry.Stage

	// Diagnostics is a concurrency-safe collector of non-fatal pipeline
	// faults (skipped files, truncated lines, contained panics). Attach
	// one via Options.Diagnostics to aggregate across runs; each
	// LearnResult/CheckResult also carries its own run's diagnostics.
	Diagnostics = diag.Collector
	// Diagnostic is one recorded fault or degradation.
	Diagnostic = diag.Diagnostic
	// Severity grades a diagnostic (info, warning, error).
	Severity = diag.Severity
	// DiagnosticsReport is the JSON-serializable diagnostics snapshot
	// (the schema behind the CLI's -diagnostics-json output).
	DiagnosticsReport = diag.Report

	// ArtifactCache is a versioned, content-addressed on-disk cache of
	// lexed configurations and per-configuration check results. Attach
	// one via Options.Artifacts (and set Options.Incremental) to make
	// warm runs skip re-lexing and re-checking unchanged inputs; see
	// OpenArtifactCache.
	ArtifactCache = artifact.Cache

	// EngineRegistry is a concurrency-safe registry of resident engines
	// keyed by contract-set fingerprint: the compile-once-serve-many
	// core of the service mode. Concurrent acquisitions of one set
	// share a single compiled checker, intern table, and lexer cache
	// (singleflighted, LRU-bounded); see NewEngineRegistry.
	EngineRegistry = core.EngineRegistry
	// RegistryEntry is one resident contract set: its fingerprint plus
	// shared compiled state, with per-request check/coverage methods.
	RegistryEntry = core.RegistryEntry
	// RegistryStats snapshots a registry's counters (entries, compiles,
	// evictions, hits, misses).
	RegistryStats = core.RegistryStats

	// Server is the resident contract service behind `concord serve`:
	// an HTTP daemon answering check, coverage, and learn requests over
	// an EngineRegistry; see NewServer and Serve.
	Server = server.Server
	// ServerOptions configures the daemon (address, timeouts, body
	// limit, registry size, drain budget); zero fields select defaults
	// and Validate rejects nonsense, mirroring Options.
	ServerOptions = server.Options
)

// ErrNoSources reports an operation given zero configuration sources —
// a glob matching no files (LoadGlob) or a service request with an
// empty corpus. Test with errors.Is.
var ErrNoSources = core.ErrNoSources

// NewEngineRegistry builds an engine registry whose entries all use the
// given engine options. maxEntries bounds the resident contract sets
// (0 selects the default); the least recently used entry is evicted at
// the bound, while in-flight holders of an evicted entry finish
// unharmed.
func NewEngineRegistry(opts Options, maxEntries int) (*EngineRegistry, error) {
	return core.NewEngineRegistry(opts, maxEntries)
}

// DefaultServerOptions returns the serve-mode defaults (loopback
// address, minute-scale timeouts, 64 MiB body cap, default registry
// size, 10s drain).
func DefaultServerOptions() ServerOptions { return server.DefaultOptions() }

// NewServer builds (without starting) a resident contract service.
// engineOpts configures every resident engine; opts configures the
// daemon. Call SetDefaultContracts to install a default set, then
// ListenAndServe, and Shutdown to drain.
func NewServer(engineOpts Options, opts ServerOptions) (*Server, error) {
	return server.New(engineOpts, opts)
}

// Serve runs the resident contract service until ctx is cancelled,
// then drains it gracefully within opts.DrainTimeout. set, when
// non-nil, becomes the server's default contract set (compiled before
// the listener opens, so the first request is warm). This is the
// blocking convenience behind `concord serve`.
func Serve(ctx context.Context, set *ContractSet, engineOpts Options, opts ServerOptions) error {
	srv, err := server.New(engineOpts, opts)
	if err != nil {
		return err
	}
	if set != nil {
		if _, err := srv.SetDefaultContracts(ctx, set); err != nil {
			return err
		}
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), srv.DrainTimeout())
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return err
	}
	<-errc // http.ErrServerClosed after a clean shutdown
	return nil
}

// The pipeline stages reported to Options.Progress.
const (
	StageProcess  = telemetry.StageProcess
	StageMine     = telemetry.StageMine
	StageMinimize = telemetry.StageMinimize
	StageCheck    = telemetry.StageCheck
	StageCoverage = telemetry.StageCoverage
)

// NewRecorder returns an empty telemetry recorder. Assign it to
// Options.Telemetry to instrument a Learn/Check run, then call
// Snapshot or WriteJSON to extract the per-stage report.
func NewRecorder() *Recorder { return telemetry.NewRecorder() }

// ParseTelemetryReport decodes a JSON report written by
// Recorder.WriteJSON (or the CLI's --metrics-json flag).
func ParseTelemetryReport(data []byte) (TelemetryReport, error) {
	return telemetry.ParseReport(data)
}

// The diagnostic severities.
const (
	SevInfo  = diag.SevInfo
	SevWarn  = diag.SevWarn
	SevError = diag.SevError
)

// NewDiagnostics returns an empty diagnostics collector. Assign it to
// Options.Diagnostics to aggregate faults across runs, then call
// Report or WriteJSON to extract the snapshot.
func NewDiagnostics() *Diagnostics { return diag.New() }

// ParseDiagnosticsReport decodes a JSON report written by
// Diagnostics.WriteJSON (or the CLI's -diagnostics-json flag).
func ParseDiagnosticsReport(data []byte) (DiagnosticsReport, error) {
	return diag.ParseReport(data)
}

// The contract categories.
const (
	CatPresent  = contracts.CatPresent
	CatOrdering = contracts.CatOrdering
	CatType     = contracts.CatType
	CatSequence = contracts.CatSequence
	CatUnique   = contracts.CatUnique
	CatRelation = contracts.CatRelation
)

// The shard execution backends (Options.ShardBackend) of a check: in
// process (the default), where every run streams on the engine's worker
// pool and Shards has no effect, or a pool of shard-worker child
// processes, each checking one shard, with a crashed worker replaced
// and its shard retried in place. Results are byte-identical across
// backends. Learn always streams in process.
const (
	ShardBackendInProcess = core.ShardBackendInProcess
	ShardBackendProcess   = core.ShardBackendProcess
)

// RunShardWorker serves the process shard backend's worker protocol
// over r/w (normally stdin/stdout): one Job frame, then one shard per
// Task frame until EOF. The concord CLI exposes it as the hidden
// `shard-worker` subcommand; embedders with their own binary can call
// it directly and point Options.ShardWorkerCommand at themselves.
func RunShardWorker(r io.Reader, w io.Writer) error { return core.RunShardWorker(r, w) }

// DefaultOptions returns the paper's default parameters: support 5,
// confidence 96%, context embedding and contract minimization enabled.
func DefaultOptions() Options { return core.DefaultOptions() }

// NewEngine builds a reusable engine (compiles user token specs once).
func NewEngine(opts Options) (*Engine, error) { return core.New(opts) }

// Learn infers a contract set from training configurations plus optional
// metadata files (concord learn).
func Learn(training, metadata []Source, opts Options) (*LearnResult, error) {
	return LearnContext(context.Background(), training, metadata, opts)
}

// LearnContext is Learn under a cancellable context: the pipeline
// checks ctx cooperatively in every worker loop and per-category miner,
// aborting within one unit of work and returning ctx.Err().
func LearnContext(ctx context.Context, training, metadata []Source, opts Options) (*LearnResult, error) {
	eng, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	return eng.LearnContext(ctx, training, metadata)
}

// Check evaluates a contract set against test configurations, reporting
// violations and per-line coverage (concord check).
func Check(set *ContractSet, test, metadata []Source, opts Options) (*CheckResult, error) {
	return CheckContext(context.Background(), set, test, metadata, opts)
}

// CheckContext is Check under a cancellable context; see LearnContext.
func CheckContext(ctx context.Context, set *ContractSet, test, metadata []Source, opts Options) (*CheckResult, error) {
	eng, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	return eng.CheckContext(ctx, set, test, metadata)
}

// LoadGlob reads every file matching the glob pattern into sources,
// sorted by name for determinism. Source names preserve the path
// relative to the pattern's fixed directory prefix, so files with the
// same base name in different directories (a/r1.cfg, b/r1.cfg) stay
// distinguishable in violations.
//
// Every matched file is attempted: read failures are collected and
// returned joined (errors.Join), so one unreadable file no longer
// hides the others. The returned sources are nil when any read failed;
// use LoadGlobLenient to keep the readable ones. A pattern matching
// zero files returns an error wrapping ErrNoSources (it used to return
// nil, nil, silently producing empty corpora downstream); test with
// errors.Is(err, ErrNoSources) to treat it as empty instead.
func LoadGlob(pattern string) ([]Source, error) {
	out, ds, err := loadGlob(pattern)
	if err != nil {
		return nil, err
	}
	if err := diag.Join(ds); err != nil {
		return nil, fmt.Errorf("concord: %w", err)
	}
	return out, nil
}

// LoadGlobLenient is LoadGlob in degraded mode: unreadable files are
// skipped and reported as error diagnostics (stage "load") instead of
// failing the load. The error is non-nil only for a malformed glob
// pattern or one matching zero files (wrapping ErrNoSources).
func LoadGlobLenient(pattern string) ([]Source, []Diagnostic, error) {
	return loadGlob(pattern)
}

// loadWorkers bounds the file-read worker pool: enough to overlap I/O,
// capped so a huge glob doesn't open hundreds of files at once.
func loadWorkers() int {
	return min(runtime.GOMAXPROCS(0), 8)
}

func loadGlob(pattern string) ([]Source, []Diagnostic, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, nil, fmt.Errorf("concord: bad glob %q: %w", pattern, err)
	}
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("concord: %w: no files match %q", core.ErrNoSources, pattern)
	}
	sort.Strings(paths)
	base := globBase(pattern)
	// Reads run on a bounded worker pool; results land in slots indexed
	// by the sorted path order, so the assembled output (and therefore
	// diagnostics order) is deterministic regardless of scheduling.
	type slot struct {
		src Source
		d   *Diagnostic
	}
	slots := make([]slot, len(paths))
	// A read never fails the pool (it becomes a diagnostic) and the
	// background context is never cancelled, so Run returns nil.
	_ = workpool.Run(context.Background(), loadWorkers(), len(paths), func(_, i int) error {
		p := paths[i]
		data, err := os.ReadFile(p)
		if err != nil {
			slots[i].d = &Diagnostic{
				Severity: SevError,
				Stage:    "load",
				Source:   filepath.ToSlash(p),
				Message:  err.Error(),
				Cause:    err,
			}
			return nil
		}
		name := p
		if rel, err := filepath.Rel(base, p); err == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
		slots[i].src = Source{Name: filepath.ToSlash(name), Text: data}
		return nil
	})
	var out []Source
	var ds []Diagnostic
	for i := range slots {
		if slots[i].d != nil {
			ds = append(ds, *slots[i].d)
			continue
		}
		out = append(out, slots[i].src)
	}
	return out, ds, nil
}

// globBase returns the longest directory prefix of a glob pattern that
// contains no metacharacters; names of matched files are reported
// relative to it.
func globBase(pattern string) string {
	dir := filepath.Dir(pattern)
	for strings.ContainsAny(dir, `*?[\`) {
		parent := filepath.Dir(dir)
		if parent == dir {
			return "."
		}
		dir = parent
	}
	return dir
}

// OpenArtifactCache opens (creating if necessary) the artifact cache
// rooted at dir, for use as Options.Artifacts. Entries are
// content-addressed and versioned: any input, option, or contract-set
// change misses naturally, corrupt entries degrade to the cold path
// with a warning diagnostic, and results are identical with or without
// a cache (the CLI's -cache-dir / -incremental flags).
func OpenArtifactCache(dir string) (*ArtifactCache, error) {
	return artifact.Open(dir)
}

// DefaultTransforms returns the built-in data transformation registry
// (identity, hex, str, IP octets, MAC segments).
func DefaultTransforms() []Transform { return relations.DefaultTransforms() }

// NewFuncIndex adapts a relation's Holds function into a linear-scan
// witness index, convenient for prototyping custom relations (see
// RelationDefinition).
func NewFuncIndex(rel Rel, holds func(lhs, witness Value) bool) RelationIndex {
	return relations.NewFuncIndex(rel, holds)
}

// NewKeyedIndex builds a hash-bucketed witness index for custom
// relations whose matches can be keyed (e.g. /31 peers keyed by their
// shared upper bits); see relations.KeyedIndex.
func NewKeyedIndex(rel Rel, keyOf func(v Value) (string, bool), verify func(lhs, witness Value) bool) RelationIndex {
	return relations.NewKeyedIndex(rel, keyOf, verify)
}
