// Command concord learns network configuration contracts from example
// configurations and checks them against new or changed configurations,
// the CLI described in §4 of the paper.
//
// Usage:
//
//	concord learn -configs 'train/*.cfg' [-meta 'meta/*.json'] [-tokens tokens.json] -out contracts.json
//	concord check -configs 'test/*.cfg' -contracts contracts.json [-html report.html] [-out report.json]
//
// Shared flags: -support, -confidence, -score-threshold, -parallel,
// -no-embed (disable context embedding), -constants (constant-learning
// mode), -no-minimize, -disable (comma-separated categories, e.g.
// "ordering" as in the production deployment).
//
// Observability flags (all subcommands): -metrics-json emits a
// per-stage telemetry report (spans with wall time and allocation
// deltas, miner/checker counters), -cpuprofile and -memprofile write
// pprof profiles, and -timeout aborts a run that exceeds a deadline.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"concord"
	"concord/internal/report"
)

// errDiagnostics is the sentinel returned when -fail-on-diagnostics is
// set and the run recorded at least one diagnostic; main maps it to
// exit code 4 (distinct from exit 3, violations found).
var errDiagnostics = errors.New("diagnostics recorded")

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "learn":
		err = runLearn(os.Args[2:], os.Stdout)
	case "check":
		var violations int
		violations, err = runCheck(os.Args[2:], os.Stdout)
		if err == nil && violations > 0 {
			os.Exit(3)
		}
	case "coverage":
		err = runCoverage(os.Args[2:], os.Stdout)
	case "serve":
		err = runServe(os.Args[2:], os.Stdout)
	case "bundle":
		err = runBundle(os.Args[2:], os.Stdout)
	case "shard-worker":
		// Hidden mode: serve the process shard backend's worker protocol
		// over stdin/stdout. Spawned by a parent concord run with
		// -shard-backend process; never invoked by hand.
		err = concord.RunShardWorker(os.Stdin, os.Stdout)
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "concord: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "concord:", err)
		if errors.Is(err, errDiagnostics) {
			os.Exit(4)
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  concord learn -configs GLOB [-meta GLOB] [-tokens FILE] [-out FILE] [options]
  concord check -configs GLOB -contracts FILE [-meta GLOB] [-out FILE] [-html FILE] [options]
  concord coverage -configs GLOB -contracts FILE [-meta GLOB] [-uncovered] [options]
  concord serve [-addr HOST:PORT] [-contracts FILE] [-bundle-dir DIR] [options]
  concord bundle pack -dir DIR -contracts FILE [-overlay FILE] [-suppress FILE]
  concord bundle inspect -dir DIR

serve (resident HTTP service; POST /v1/check, GET /v1/coverage,
POST /v1/learn + GET /v1/jobs/{id}, POST/GET /v1/bundles, GET /healthz,
GET /metrics):
  -addr HOST:PORT      listen address (default 127.0.0.1:8344)
  -contracts FILE      default contract set (requests may embed their own
                       or reference any resident set by fingerprint)
  -bundle-dir DIR      crash-safe bundle store: pushed/learned bundles
                       persist there, SIGHUP hot-reloads the newest one
                       (failed reloads roll back to the last known good),
                       and learn jobs survive a daemon restart
  -max-inflight N      shed work beyond N concurrent requests with 429
  -job-retention DUR   keep finished learn jobs queryable this long (1h)
  -registry-size N     resident contract sets kept hot (LRU bound)
  -read-timeout DUR    HTTP read timeout
  -write-timeout DUR   HTTP write timeout
  -request-timeout DUR per-request pipeline deadline (504 on expiry)
  -max-body-bytes N    request body cap (413 on excess)
  -drain-timeout DUR   graceful shutdown budget after SIGINT/SIGTERM

bundle (operator tooling for the serve bundle store):
  pack                 package contracts + overlay + suppressions into
                       the store atomically (checksummed manifest)
  inspect              list bundles, the last-known-good pointer, and
                       quarantined corruption

options:
  -support N           minimum configurations per pattern (default 5)
  -confidence F        required contract confidence (default 0.96)
  -score-threshold F   relational score threshold (default 8)
  -parallel N          worker count (default GOMAXPROCS)
  -no-embed            disable context embedding
  -constants           enable constant-learning mode
  -no-minimize         disable contract minimization
  -disable CATS        comma-separated categories to disable (e.g. ordering)

warm runs:
  -cache-dir DIR       content-addressed artifact cache (lexed configs +
                       check results); corrupt entries degrade to the cold
                       path, results are identical with or without a cache
  -incremental         replay cached per-config check results for unchanged
                       configs (requires -cache-dir)

fleet-scale checking (check only):
  (every check and learn streams: each config is processed, checked or
  folded into a mergeable statistics accumulator, and released, so peak
  memory is bounded by the configs in flight, not by fleet size; learn
  always runs in this process, parallel over -parallel workers)
  -shards N            with -shard-backend process, partition a check
                       into N deterministic contiguous shards, each
                       streamed in a worker child process; output is
                       byte-identical to an unsharded check (no effect
                       in process)
  -shard-workers N     max worker processes at once (default -parallel)
  -shard-backend B     shard execution backend: "inprocess" (default) or
                       "process", which checks each shard in a pool of
                       worker child processes over checksummed pipes —
                       a crashed worker is replaced and its shard
                       retried, and output stays byte-identical

robustness:
  -lenient             skip unreadable input files with diagnostics
  -strict              abort on any contained fault or degraded input
  -diagnostics-json F  write the run's diagnostics report to this file
  -fail-on-diagnostics exit 4 if any diagnostics were recorded

observability:
  -metrics-json FILE   write a per-stage telemetry report (spans, counters)
  -cpuprofile FILE     write a pprof CPU profile
  -memprofile FILE     write a pprof heap profile
  -timeout DUR         abort the run after this duration (e.g. 30s, 5m)`)
}

// filterCategories drops contracts whose category is not enabled, for
// check-time use of -disable on an already-learned set.
func filterCategories(set *concord.ContractSet, enabled []concord.Category) *concord.ContractSet {
	if len(enabled) == 0 {
		return set
	}
	on := make(map[concord.Category]bool, len(enabled))
	for _, c := range enabled {
		on[c] = true
	}
	out := &concord.ContractSet{}
	for _, c := range set.Contracts {
		if on[c.Category()] {
			out.Contracts = append(out.Contracts, c)
		}
	}
	return out
}

// runConfig carries the shared engine flags plus the robustness and
// observability flags (diagnostics, metrics report, profiles, timeout)
// common to every subcommand.
type runConfig struct {
	options func() (concord.Options, error)

	metricsJSON *string
	cpuProfile  *string
	memProfile  *string
	timeout     *time.Duration

	diagnosticsJSON *string
	lenient         *bool
	strict          *bool
	failOnDiag      *bool
	// diags collects every diagnostic of the run — lenient-load skips
	// plus the engine's contained faults — for the -diagnostics-json
	// report and the -fail-on-diagnostics policy.
	diags *concord.Diagnostics
}

// instrument prepares one run: it builds the (possibly deadlined)
// context, attaches a telemetry recorder to the options when
// --metrics-json is set, and starts CPU profiling. The returned finish
// func writes the requested artifacts; call it only on success, after
// the pipeline completes. The cancel func must always be deferred.
func (rc *runConfig) instrument(opts *concord.Options) (context.Context, context.CancelFunc, func(w io.Writer) error, error) {
	ctx, cancel := context.Background(), context.CancelFunc(func() {})
	if *rc.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, *rc.timeout)
	}
	opts.Diagnostics = rc.diags
	opts.Strict = *rc.strict
	var rec *concord.Recorder
	if *rc.metricsJSON != "" {
		rec = concord.NewRecorder()
		opts.Telemetry = rec
	}
	var cpuFile *os.File
	if *rc.cpuProfile != "" {
		f, err := os.Create(*rc.cpuProfile)
		if err != nil {
			cancel()
			return nil, nil, nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			cancel()
			return nil, nil, nil, err
		}
		cpuFile = f
	}
	finish := func(w io.Writer) error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote %s\n", *rc.cpuProfile)
		}
		if *rc.memProfile != "" {
			f, err := os.Create(*rc.memProfile)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // materialize the final live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote %s\n", *rc.memProfile)
		}
		if rec != nil {
			f, err := os.Create(*rc.metricsJSON)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := rec.WriteJSON(f); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote %s\n", *rc.metricsJSON)
		}
		if *rc.diagnosticsJSON != "" {
			f, err := os.Create(*rc.diagnosticsJSON)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := rc.diags.WriteJSON(f); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote %s\n", *rc.diagnosticsJSON)
		}
		if n := rc.diags.Len(); n > 0 {
			fmt.Fprintf(w, "%d diagnostic(s) recorded\n", n)
			if *rc.failOnDiag {
				return fmt.Errorf("%d %w", n, errDiagnostics)
			}
		}
		return nil
	}
	return ctx, cancel, finish, nil
}

// sharedFlags registers the engine options on a flag set.
func sharedFlags(fs *flag.FlagSet) *runConfig {
	support := fs.Int("support", 5, "minimum configurations per pattern (S)")
	confidence := fs.Float64("confidence", 0.96, "required contract confidence (C)")
	threshold := fs.Float64("score-threshold", 8, "relational score threshold")
	parallel := fs.Int("parallel", 0, "worker count (0 = GOMAXPROCS)")
	noEmbed := fs.Bool("no-embed", false, "disable context embedding")
	constants := fs.Bool("constants", false, "enable constant-learning mode")
	noMinimize := fs.Bool("no-minimize", false, "disable contract minimization")
	disable := fs.String("disable", "", "comma-separated categories to disable")
	tokens := fs.String("tokens", "", "JSON file of user lexer token specs")
	cacheDir := fs.String("cache-dir", "", "content-addressed artifact cache directory for warm runs")
	incremental := fs.Bool("incremental", false, "replay cached check results for unchanged configs (requires -cache-dir)")
	rc := &runConfig{
		metricsJSON: fs.String("metrics-json", "", "write a per-stage telemetry report to this file"),
		cpuProfile:  fs.String("cpuprofile", "", "write a pprof CPU profile to this file"),
		memProfile:  fs.String("memprofile", "", "write a pprof heap profile to this file"),
		timeout:     fs.Duration("timeout", 0, "abort the run after this duration (0 = none)"),

		diagnosticsJSON: fs.String("diagnostics-json", "", "write the run's diagnostics report to this file"),
		lenient:         fs.Bool("lenient", false, "skip unreadable input files with diagnostics instead of failing"),
		strict:          fs.Bool("strict", false, "abort on any contained fault or degraded input"),
		failOnDiag:      fs.Bool("fail-on-diagnostics", false, "exit with code 4 if any diagnostics were recorded"),
		diags:           concord.NewDiagnostics(),
	}
	rc.options = func() (concord.Options, error) {
		opts := concord.DefaultOptions()
		if *rc.lenient && *rc.strict {
			return opts, fmt.Errorf("-lenient and -strict are mutually exclusive")
		}
		opts.Support = *support
		opts.Confidence = *confidence
		opts.ScoreThreshold = *threshold
		opts.Parallelism = *parallel
		opts.ContextEmbedding = !*noEmbed
		opts.ConstantLearning = *constants
		opts.Minimize = !*noMinimize
		if *disable != "" {
			enabled := map[concord.Category]bool{}
			for _, c := range []concord.Category{
				concord.CatPresent, concord.CatOrdering, concord.CatType,
				concord.CatSequence, concord.CatUnique, concord.CatRelation,
			} {
				enabled[c] = true
			}
			for _, name := range strings.Split(*disable, ",") {
				delete(enabled, concord.Category(strings.TrimSpace(name)))
			}
			for c, on := range enabled {
				if on {
					opts.Categories = append(opts.Categories, c)
				}
			}
		}
		if *tokens != "" {
			specs, err := loadTokens(*tokens)
			if err != nil {
				return opts, err
			}
			opts.UserTokens = specs
		}
		if *incremental && *cacheDir == "" {
			return opts, fmt.Errorf("-incremental requires -cache-dir")
		}
		if *cacheDir != "" {
			cache, err := concord.OpenArtifactCache(*cacheDir)
			if err != nil {
				return opts, err
			}
			opts.Artifacts = cache
			opts.Incremental = *incremental
		}
		return opts, nil
	}
	return rc
}

// tokenFile is the on-disk form of user token specs:
// [{"name": "iface", "pattern": "et-[0-9]+"}].
type tokenFile []struct {
	Name    string `json:"name"`
	Pattern string `json:"pattern"`
}

func loadTokens(path string) ([]concord.TokenSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tf tokenFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	var out []concord.TokenSpec
	for _, t := range tf {
		out = append(out, concord.TokenSpec{Name: t.Name, Pattern: t.Pattern})
	}
	return out, nil
}

// loadInputs reads the configuration and metadata globs. With -lenient,
// unreadable files are skipped and recorded as diagnostics instead of
// failing the run.
func (rc *runConfig) loadInputs(configGlob, metaGlob string) (srcs, meta []concord.Source, err error) {
	if configGlob == "" {
		return nil, nil, fmt.Errorf("-configs is required")
	}
	load := concord.LoadGlob
	if *rc.lenient {
		load = func(pattern string) ([]concord.Source, error) {
			out, ds, err := concord.LoadGlobLenient(pattern)
			for _, d := range ds {
				rc.diags.Add(d)
			}
			return out, err
		}
	}
	srcs, err = load(configGlob)
	if err != nil {
		return nil, nil, err
	}
	if len(srcs) == 0 {
		return nil, nil, fmt.Errorf("no files match %q", configGlob)
	}
	if metaGlob != "" {
		meta, err = load(metaGlob)
		// A metadata glob matching nothing is not an error: metadata is
		// optional context, unlike the configuration corpus.
		if err != nil && !errors.Is(err, concord.ErrNoSources) {
			return nil, nil, err
		}
	}
	return srcs, meta, nil
}

func runLearn(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("learn", flag.ExitOnError)
	configGlob := fs.String("configs", "", "glob of training configuration files")
	metaGlob := fs.String("meta", "", "glob of metadata files")
	out := fs.String("out", "contracts.json", "output contract file")
	rc := sharedFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts, err := rc.options()
	if err != nil {
		return err
	}
	srcs, meta, err := rc.loadInputs(*configGlob, *metaGlob)
	if err != nil {
		return err
	}
	ctx, cancel, finish, err := rc.instrument(&opts)
	if err != nil {
		return err
	}
	defer cancel()
	start := time.Now()
	lr, err := concord.LearnContext(ctx, srcs, meta, opts)
	if err != nil {
		return err
	}
	data, err := report.ContractsJSON(lr.Set, lr.Stats)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "learned %d contracts from %d configurations (%d lines, %d patterns) in %v\n",
		lr.Set.Len(), lr.Stats.Configs, lr.Stats.Lines, lr.Stats.Patterns,
		time.Since(start).Round(time.Millisecond))
	if lr.Minimization.Before > 0 {
		fmt.Fprintf(w, "minimization: %d -> %d relational contracts (%.1fx)\n",
			lr.Minimization.Before, lr.Minimization.After, lr.Minimization.ReductionFactor())
	}
	fmt.Fprintf(w, "wrote %s\n", *out)
	return finish(w)
}

func runCheck(args []string, w io.Writer) (int, error) {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	configGlob := fs.String("configs", "", "glob of test configuration files")
	metaGlob := fs.String("meta", "", "glob of metadata files")
	contractsPath := fs.String("contracts", "", "contract file from concord learn")
	jsonOut := fs.String("out", "", "write JSON report to this file")
	htmlOut := fs.String("html", "", "write HTML report to this file")
	suppress := fs.String("suppress", "", "JSON file of contract IDs to suppress (operator feedback)")
	shards := fs.Int("shards", 0, "with -shard-backend process, check as N shards in worker processes (no effect in process)")
	shardWorkers := fs.Int("shard-workers", 0, "max worker processes at once (0 = -parallel)")
	shardBackend := fs.String("shard-backend", "", "shard execution backend: inprocess (default) or process")
	rc := sharedFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	opts, err := rc.options()
	if err != nil {
		return 0, err
	}
	opts.Shards, opts.ShardWorkers, opts.ShardBackend = *shards, *shardWorkers, *shardBackend
	if *contractsPath == "" {
		return 0, fmt.Errorf("-contracts is required")
	}
	data, err := os.ReadFile(*contractsPath)
	if err != nil {
		return 0, err
	}
	set, err := report.ParseContractsJSON(data)
	if err != nil {
		return 0, err
	}
	set = filterCategories(set, opts.Categories)
	if *suppress != "" {
		ids, err := loadSuppressions(*suppress)
		if err != nil {
			return 0, err
		}
		var n int
		set, n = set.Without(ids)
		fmt.Fprintf(w, "suppressed %d contract(s) per %s\n", n, *suppress)
	}
	srcs, meta, err := rc.loadInputs(*configGlob, *metaGlob)
	if err != nil {
		return 0, err
	}
	ctx, cancel, finish, err := rc.instrument(&opts)
	if err != nil {
		return 0, err
	}
	defer cancel()
	start := time.Now()
	cr, err := concord.CheckContext(ctx, set, srcs, meta, opts)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "checked %d configurations against %d contracts in %v\n",
		cr.Stats.Configs, set.Len(), time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(w, "coverage: %.1f%% of %d lines\n", cr.Coverage.Percent(), cr.Coverage.TotalLines)
	for _, v := range cr.Violations {
		// Location omits the line number for file-level violations
		// (missing required or unique lines), so nothing prints "file:0".
		fmt.Fprintf(w, "%s: [%s] %s\n", v.Location(), v.Category, v.Detail)
	}
	rep := report.New(cr, time.Now())
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		if err := rep.WriteJSON(f); err != nil {
			return 0, err
		}
		fmt.Fprintf(w, "wrote %s\n", *jsonOut)
	}
	if *htmlOut != "" {
		f, err := os.Create(*htmlOut)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		if err := rep.WriteHTML(f); err != nil {
			return 0, err
		}
		fmt.Fprintf(w, "wrote %s\n", *htmlOut)
	}
	if len(cr.Violations) > 0 {
		fmt.Fprintf(w, "%d violation(s) found\n", len(cr.Violations))
	} else {
		fmt.Fprintln(w, "no violations")
	}
	return len(cr.Violations), finish(w)
}

// loadSuppressions reads a JSON array of contract IDs.
func loadSuppressions(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ids []string
	if err := json.Unmarshal(data, &ids); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	out := make(map[string]bool, len(ids))
	for _, id := range ids {
		out[id] = true
	}
	return out, nil
}

// runCoverage prints per-line coverage annotations (§3.9).
func runCoverage(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("coverage", flag.ExitOnError)
	configGlob := fs.String("configs", "", "glob of configuration files")
	metaGlob := fs.String("meta", "", "glob of metadata files")
	contractsPath := fs.String("contracts", "", "contract file from concord learn")
	uncoveredOnly := fs.Bool("uncovered", false, "print only uncovered lines")
	rc := sharedFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts, err := rc.options()
	if err != nil {
		return err
	}
	if *contractsPath == "" {
		return fmt.Errorf("-contracts is required")
	}
	data, err := os.ReadFile(*contractsPath)
	if err != nil {
		return err
	}
	set, err := report.ParseContractsJSON(data)
	if err != nil {
		return err
	}
	set = filterCategories(set, opts.Categories)
	srcs, meta, err := rc.loadInputs(*configGlob, *metaGlob)
	if err != nil {
		return err
	}
	ctx, cancel, finish, err := rc.instrument(&opts)
	if err != nil {
		return err
	}
	defer cancel()
	eng, err := concord.NewEngine(opts)
	if err != nil {
		return err
	}
	lines, err := eng.CoverageLinesContext(ctx, set, srcs, meta)
	if err != nil {
		return err
	}
	covered := 0
	for _, lc := range lines {
		if lc.Covered {
			covered++
			if *uncoveredOnly {
				continue
			}
			cats := make([]string, 0, len(lc.Categories))
			for _, c := range lc.Categories {
				cats = append(cats, string(c))
			}
			fmt.Fprintf(w, "C %s:%d: %s  [%s]\n", lc.File, lc.Line, lc.Raw, strings.Join(cats, ","))
		} else {
			fmt.Fprintf(w, ". %s:%d: %s\n", lc.File, lc.Line, lc.Raw)
		}
	}
	if len(lines) > 0 {
		fmt.Fprintf(w, "covered %d/%d lines (%.1f%%)\n",
			covered, len(lines), 100*float64(covered)/float64(len(lines)))
	}
	return finish(w)
}
