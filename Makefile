GO ?= go

.PHONY: ci fmt vet build test race fuzz-smoke bench perfbench-smoke chaos serve-smoke reload-smoke fleet-smoke dist-smoke vuln

# ci is the full verification gate: formatting, static checks, build,
# the race-enabled test suite, a 30 s run of the lexer fuzz test, the
# fault-injection suite, a smoke run of the repo benchmark (perfbench),
# a smoke run of the HTTP service, the crash-recovery/hot-reload smoke, the fleet-scale streaming
# smoke, the worker-process shard backend smoke, and a best-effort
# vulnerability scan.
ci: fmt vet build race fuzz-smoke chaos perfbench-smoke serve-smoke reload-smoke fleet-smoke dist-smoke vuln

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# perfbench is a separate module (replace concord => ../), so the root
# ./... patterns skip it; vet and build it from its own directory, with
# GOFLAGS cleared as perfbench/run.sh does. The binary goes to
# /dev/null so the build leaves no file in the benchmark's directory.
vet:
	$(GO) vet ./...
	cd perfbench && GOFLAGS= $(GO) vet ./...

build:
	$(GO) build ./...
	cd perfbench && GOFLAGS= $(GO) build -o /dev/null ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 20m ./...

# fuzz-smoke fuzzes the lexer for 30 s beyond its seed corpus: FuzzLex
# diffs the single-pass scan against the find-all reference, with the
# built-in tokens alone and with user tokens ahead of them. Minimizing
# each new interesting input is capped at 200 executions: under the
# default 60 s cap the run spent most of its 30 s minimizing and
# executed nothing new (0 execs/s from 12 s on).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzLex$$' -fuzztime 30s -fuzzminimizetime 200x ./internal/lexer

# chaos runs the fault-injection and pathological-input suites under
# the race detector: panic containment, strict-mode aborts, input
# guards, and goroutine-leak checks.
chaos:
	$(GO) test -race -timeout 10m -run 'Chaos|Fault|Panic|Pathological|Lenient|Diagnostics|Guard|Limits|Binary|Oversize|DepthCap|LineBudget|EmptyCorpus|Poison|Warm|Artifact|Incremental|Corrupt|Concurrent|Registry|Singleflight|Eviction|Bundle|Reload|Rollback|Journal|Recover|Shard|ReduceUnique|OnePass|Fleet|Worker|Dist|Frame|Accumulator' ./...

# serve-smoke boots the resident HTTP service under the race detector
# and drives it over real sockets: one-shot/served output identity, the
# 64-client singleflight compile gate, and the CLI serve command's
# full start-request-drain lifecycle.
serve-smoke:
	$(GO) test -race -timeout 5m -count=1 -run 'TestServeSmoke|TestServeConcurrentBurstCompilesOnce|TestServeCommand' ./internal/server ./cmd/concord

# reload-smoke is the crash-safety gate: a real daemon is SIGKILLed
# mid-learn and a successor over the same bundle directory must
# recover the last-known-good serving set and the interrupted job;
# plus the in-process hot-reload-under-load and restart-recovery
# suites, all under the race detector.
reload-smoke:
	$(GO) test -race -timeout 5m -count=1 -run 'TestReloadSmokeKillRecover|TestServeRestart|TestServeReloadUnderLoad|TestServeBundle' ./cmd/concord ./internal/server

# fleet-smoke is the fleet-scale streaming gate under the race
# detector: the stream interleaves each configuration's process and
# check or mine steps and reports exact global progress
# (TestStreamInterleavesStages), the stream from sources matches the
# staged CheckProcessed at Parallelism 1 and 8, in-process shard
# options are a no-op and the process-backend shard rows (partition
# edges, warm replay of a stream-populated cache, monotonic progress)
# stay byte-identical (TestSharded*), the map-reduce Unique reduce
# (contiguous splits, sites replayed through the check-artifact record,
# panic containment), the one pass per configuration (check, coverage
# and Unique sites off one view against separate calls; the reduce
# against the corpus walk; a contained config panic keeping its Unique
# sites), the 10k-device generation-plan uniqueness suite, and the
# sharded server batch and CLI paths.
fleet-smoke:
	$(GO) test -race -timeout 10m -count=1 -run 'TestStream|TestCheckAllDeterministic$$|TestSharded|TestShardOptionsValidate|TestReduceUnique|TestOnePass|TestFleet|TestServeShardedCheckBatch' ./internal/core ./internal/contracts ./internal/artifact ./internal/synth ./internal/server ./cmd/concord

# dist-smoke is the worker-process shard backend gate under the race
# detector: cross-backend differential identity (process vs. in-process
# at {1,3,16} shards × {1,4} workers), warm-cache replay across the
# process boundary, worker-crash chaos (SIGKILL mid-shard, retry then
# containment; corrupt result frames rejected by checksum and retried),
# mid-shard cancellation, no-orphan/no-leak drain, non-default options
# across the process boundary, the wire-frame fuzz corpus, the
# server/CLI process-backend check paths (the check endpoint's
# shard-selection validation included), and the check-only scope of
# the shard options: a learn under a process-backend selection never
# leaves the process (engine, server body, journaled job) and the CLI
# registers the shard flags on check alone.
dist-smoke:
	$(GO) test -race -timeout 10m -count=1 -run 'TestDist|TestChaosDist|TestProcessBackend|TestWire|TestReadFrame|TestFrame|FuzzShardFrame|TestMakeShardsProperty|TestServeProcessBackendBatch|TestServeCheckShardValidation|TestCheckShardBackendProcess|TestLearnStaysInProcess|TestServeShardedLearn|TestShardFlagsCheckOnly' ./internal/core ./internal/shardrpc ./internal/artifact ./internal/server ./cmd/concord

# vuln scans dependencies with govulncheck when it is installed; the
# scan is best-effort and never fails the build (the tool may be
# absent or need network access).
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "govulncheck reported issues (non-fatal)"; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# bench runs the Go benchmarks in bench_test.go: one per table and
# figure of the paper's evaluation, plus per-role learn and check,
# lexer, brute-force and Apriori miner, and minimization
# micro-benchmarks; the lexer's layer benchmarks in internal/lexer
# (BenchmarkLex: uncached Lex over the W4 and E2 lines, ns/line and
# allocs/line; BenchmarkLexUserTokens: the same over the W4, E2 and W2
# lines with a selective or an unselective user token, ns/line); and the
# checker's layer benchmark in internal/contracts (BenchmarkCheckConfig:
# the one pass per configuration over engine-processed E2 and W4
# configurations, ns/config and allocs/config). GOMAXPROCS is pinned and
# each runs one iteration, so numbers are comparable across runs on one
# machine. The end-to-end benchmark is perfbench (see perfbench/README.md
# and BENCHMARK.json).
BENCH_GOMAXPROCS ?= 4

bench:
	GOMAXPROCS=$(BENCH_GOMAXPROCS) $(GO) test -bench=. -benchtime=1x -count=1 -run=^$$ . ./internal/lexer ./internal/contracts

# perfbench-smoke is the ci gate on the repo benchmark: one short run of
# each perfbench workload at the pinned seed. A run exits non-zero when
# any output misses its pinned digest (learned sets and check reports),
# when the process-backend check differs from the in-process one, or
# when a served response differs from the direct registry check.
PERFBENCH_WORKLOADS = learn check-fleet serve-check check-dist

perfbench-smoke:
	@set -e; for w in $(PERFBENCH_WORKLOADS); do \
		echo "perfbench-smoke: $$w"; \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0; \
	done
