package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"concord/internal/contracts"
	"concord/internal/lexer"
	"concord/internal/netdata"
	"concord/internal/telemetry"
)

// TestMain doubles as the shard-worker trampoline: the process pool
// launches this test binary with CONCORD_SHARD_WORKER=1, and the run
// must turn into a worker loop instead of a second test suite.
func TestMain(m *testing.M) {
	if os.Getenv("CONCORD_SHARD_WORKER") == "1" {
		if err := RunShardWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// distEngine builds an engine routed through the process backend, with
// this test binary serving as the shard-worker command.
func distEngine(t *testing.T, shards, workers int, mutate func(*Options)) *Engine {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Shards = shards
	opts.ShardWorkers = workers
	opts.ShardBackend = ShardBackendProcess
	opts.ShardWorkerCommand = []string{exe}
	if mutate != nil {
		mutate(&opts)
	}
	return MustNew(opts)
}

// TestDistProcessMatchesInProcess is the cross-backend differential
// gate: at every (shards, workers) combination the process backend
// must serialize byte-identical to the unsharded in-process driver,
// merged cross-config Unique violations included.
func TestDistProcessMatchesInProcess(t *testing.T) {
	lr, err := MustNew(DefaultOptions()).Learn(chaosSources(30), nil)
	if err != nil {
		t.Fatal(err)
	}
	test := shardCorpus(40)
	base, err := MustNew(DefaultOptions()).Check(lr.Set, test, nil)
	if err != nil {
		t.Fatal(err)
	}
	dup := 0
	for _, v := range base.Violations {
		if strings.Contains(v.Detail, "duplicates") {
			dup++
		}
	}
	if dup == 0 {
		t.Fatal("baseline found no cross-config duplicates; the corpus does not exercise the combiner")
	}
	want := checkJSON(t, base)
	for _, shards := range []int{1, 3, 16} {
		for _, workers := range []int{1, 4} {
			rec := telemetry.NewRecorder()
			eng := distEngine(t, shards, workers, func(o *Options) { o.Telemetry = rec })
			got, err := eng.Check(lr.Set, test, nil)
			if err != nil {
				t.Fatalf("process backend %d shards / %d workers: %v", shards, workers, err)
			}
			if gotJSON := checkJSON(t, got); gotJSON != want {
				t.Errorf("%d shards / %d workers diverge from the in-process driver:\n got %s\nwant %s",
					shards, workers, gotJSON, want)
			}
			rep := rec.Snapshot()
			wantShards := int64(shards)
			if shards > len(test) {
				wantShards = int64(len(test))
			}
			if n := rep.Counters["shard.dispatches"]; n != wantShards {
				t.Errorf("%d shards / %d workers: shard.dispatches = %d, want %d", shards, workers, n, wantShards)
			}
			spans := 0
			for _, sp := range rep.Spans {
				if strings.HasPrefix(sp.Name, "dist.shard[") {
					spans++
				}
			}
			if int64(spans) != wantShards {
				t.Errorf("%d shards / %d workers: %d dist.shard spans, want %d", shards, workers, spans, wantShards)
			}
		}
	}
}

// TestShardedEmptyAndTinyCorpus exercises the process backend's
// partition edges: fewer sources than shards, a single source, and an
// empty corpus.
func TestShardedEmptyAndTinyCorpus(t *testing.T) {
	lr, err := MustNew(DefaultOptions()).Learn(chaosSources(20), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 3} {
		test := chaosSources(n)
		base, err := MustNew(DefaultOptions()).Check(lr.Set, test, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := distEngine(t, 16, 4, nil).Check(lr.Set, test, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if gj, want := checkJSON(t, got), checkJSON(t, base); gj != want {
			t.Errorf("n=%d: output diverges:\n got %s\nwant %s", n, gj, want)
		}
	}
}

// TestShardedWarmReplayMatchesCold composes the process backend with
// the artifact cache: a sharded incremental run over a cache populated
// by the in-process stream replays every lex and check artifact in its
// workers and still produces identical output — shard boundaries and
// the process boundary are invisible to the cache. Worker counters
// never reach this process, so the manifest's hit flags are the proof.
func TestShardedWarmReplayMatchesCold(t *testing.T) {
	lr, err := MustNew(DefaultOptions()).Learn(chaosSources(20), nil)
	if err != nil {
		t.Fatal(err)
	}
	test := shardCorpus(24)
	cold, err := MustNew(DefaultOptions()).Check(lr.Set, test, nil)
	if err != nil {
		t.Fatal(err)
	}
	cache := openTestCache(t)
	popEng, _ := warmEngine(t, cache, true)
	populate, err := popEng.Check(lr.Set, test, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCheck(t, "populate", populate, cold)

	warm, err := distEngine(t, 5, 3, func(o *Options) { o.Artifacts, o.Incremental = cache, true }).Check(lr.Set, test, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gj, want := checkJSON(t, warm), checkJSON(t, cold); gj != want {
		t.Errorf("sharded warm output diverges:\n got %s\nwant %s", gj, want)
	}
	m, err := cache.ReadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Configs) != len(test) {
		t.Fatalf("manifest has %d configs, want %d", len(m.Configs), len(test))
	}
	for i, mc := range m.Configs {
		if mc.Name != test[i].Name {
			t.Fatalf("manifest entry %d = %s, want corpus order (%s)", i, mc.Name, test[i].Name)
		}
		if !mc.LexHit || !mc.CheckHit {
			t.Errorf("manifest entry %s: lex_hit=%v check_hit=%v, want both true", mc.Name, mc.LexHit, mc.CheckHit)
		}
	}
}

// TestShardedProgressMonotonic asserts a process-backend check reports
// one global monotonic (done, total) stream per stage — not per-shard
// restarts — on a cold and on a warm run.
func TestShardedProgressMonotonic(t *testing.T) {
	lr, err := MustNew(DefaultOptions()).Learn(chaosSources(20), nil)
	if err != nil {
		t.Fatal(err)
	}
	test := shardCorpus(60)
	cache := openTestCache(t)
	for _, pass := range []string{"cold", "warm"} {
		plog := newProgressLog()
		eng := distEngine(t, 7, 3, func(o *Options) {
			o.Artifacts, o.Incremental = cache, true
			o.Progress = plog.record
		})
		if _, err := eng.Check(lr.Set, test, nil); err != nil {
			t.Fatalf("%s: %v", pass, err)
		}
		plog.assertMonotonic(t, telemetry.StageProcess, len(test))
		plog.assertMonotonic(t, telemetry.StageCheck, len(test))
	}
}

// TestDistProcessWarmReplay runs the process backend against a shared
// artifact cache: the cold distributed run must match the in-process
// driver, a second warm distributed run must replay identically, and
// an in-process warm run over the same cache must hit the artifacts
// the workers wrote (proving the fingerprints agree across the
// process boundary).
func TestDistProcessWarmReplay(t *testing.T) {
	lr, err := MustNew(DefaultOptions()).Learn(chaosSources(20), nil)
	if err != nil {
		t.Fatal(err)
	}
	test := shardCorpus(24)
	base, err := MustNew(DefaultOptions()).Check(lr.Set, test, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := checkJSON(t, base)

	cache := openTestCache(t)
	shared := func(o *Options) { o.Artifacts = cache; o.Incremental = true }
	cold, err := distEngine(t, 3, 2, shared).Check(lr.Set, test, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := checkJSON(t, cold); got != want {
		t.Errorf("cold distributed run diverges:\n got %s\nwant %s", got, want)
	}
	warm, err := distEngine(t, 3, 2, shared).Check(lr.Set, test, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := checkJSON(t, warm); got != want {
		t.Errorf("warm distributed run diverges:\n got %s\nwant %s", got, want)
	}
	// Worker-side counters never reach this process; the proof that
	// workers populated the cache is an in-process warm run hitting it.
	eng, rec := warmEngine(t, cache, true)
	rep, err := eng.Check(lr.Set, test, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCheck(t, "in-process warm after distributed cold", rep, base)
	if hits := rec.Counter("artifact.cache_hits"); hits == 0 {
		t.Error("in-process warm run hit no artifacts; workers did not populate the shared cache")
	}
}

// TestDistNonDefaultOptions carries a non-default value of every
// option in the process backend's options descriptor across the
// process boundary: a check on 3 process shards must equal the
// in-process check, and a distributed cold run must populate the
// shared cache for an in-process warm run under the same options —
// which only hits if the worker's processing fingerprint equals the
// parent's. The mining options are set too; the descriptor leaves them
// out, because a worker never learns.
func TestDistNonDefaultOptions(t *testing.T) {
	custom := func(o *Options) {
		o.ContextEmbedding = false
		o.ConstantLearning = true
		o.Support = 3
		o.Confidence = 0.9
		o.ScoreThreshold = 4
		o.MaxFanout = 16
		o.LexCacheSize = -1
		o.Categories = []contracts.Category{contracts.CatPresent, contracts.CatRelation, contracts.CatUnique, contracts.CatSequence}
		o.Limits.MaxLineLen = 18
		o.UserTokens = []lexer.TokenSpec{{Name: "vlanid", Pattern: `vlan [0-9]+`, WordBoundary: true}}
	}
	opts := DefaultOptions()
	custom(&opts)
	train, test := chaosSources(24), shardCorpus(24)
	// Every line of these stays under the 18-byte limit, so they process
	// cleanly and are the configurations the cache stores.
	for i := 0; i < 4; i++ {
		test = append(test, Source{Name: fmt.Sprintf("s%d.cfg", i), Text: []byte(fmt.Sprintf("hostname s%d\nvlan %d\n", i, 10+i))})
	}
	base, err := MustNew(opts).Learn(train, nil)
	if err != nil {
		t.Fatal(err)
	}
	if base.Set.Len() == 0 {
		t.Fatal("baseline learned no contracts; the corpus does not exercise the checker")
	}

	want, err := MustNew(opts).Check(base.Set, test, nil)
	if err != nil {
		t.Fatal(err)
	}
	cache := openTestCache(t)
	cold, err := distEngine(t, 3, 2, func(o *Options) { custom(o); o.Artifacts = cache; o.Incremental = true }).Check(base.Set, test, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := checkJSON(t, cold); got != checkJSON(t, want) {
		t.Errorf("process-backend check diverges:\n got %s\nwant %s", got, checkJSON(t, want))
	}
	warmOpts := opts
	warmRec := telemetry.NewRecorder()
	warmOpts.Artifacts, warmOpts.Telemetry = cache, warmRec
	if _, err := MustNew(warmOpts).Check(base.Set, test, nil); err != nil {
		t.Fatal(err)
	}
	if hits := warmRec.Counter("artifact.cache_hits"); hits == 0 {
		t.Error("in-process warm run hit no artifacts the workers wrote; the processing fingerprints differ across the process boundary")
	}
}

// TestLearnStaysInProcess: the shard options are check-only. A learn
// under a process-backend selection streams in this process — no
// worker spawned, no shard dispatched — and learns the default
// engine's set with the same corpus statistics.
func TestLearnStaysInProcess(t *testing.T) {
	train := chaosSources(12)
	base, err := MustNew(DefaultOptions()).Learn(train, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewRecorder()
	got, err := distEngine(t, 3, 2, func(o *Options) { o.Telemetry = rec }).Learn(train, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gj, want := learnJSON(t, got), learnJSON(t, base); gj != want {
		t.Errorf("learn under a process-backend selection diverges:\n got %s\nwant %s", gj, want)
	}
	if got.Stats != base.Stats {
		t.Errorf("stats diverge: got %+v, want %+v", got.Stats, base.Stats)
	}
	for _, c := range []string{"worker.spawns", "shard.dispatches"} {
		if n := rec.Counter(c); n != 0 {
			t.Errorf("%s = %d, want 0: a learn left this process", c, n)
		}
	}
}

// TestDistWorkerCrashRetried SIGKILLs the worker holding shard 1 on
// its first attempt: the slot must respawn its worker and retry the
// shard, and the final report must be byte-identical to the in-process
// driver's.
func TestDistWorkerCrashRetried(t *testing.T) {
	t.Setenv("CONCORD_SHARDRPC_CRASH_SHARD", "1")
	lr, err := MustNew(DefaultOptions()).Learn(chaosSources(20), nil)
	if err != nil {
		t.Fatal(err)
	}
	test := shardCorpus(40)
	base, err := MustNew(DefaultOptions()).Check(lr.Set, test, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewRecorder()
	got, err := distEngine(t, 4, 2, func(o *Options) { o.Telemetry = rec }).Check(lr.Set, test, nil)
	if err != nil {
		t.Fatalf("check with one worker crash = %v, want retried success", err)
	}
	if gotJSON, want := checkJSON(t, got), checkJSON(t, base); gotJSON != want {
		t.Errorf("crash-retried run diverges:\n got %s\nwant %s", gotJSON, want)
	}
	if n := rec.Counter("worker.crashes"); n < 1 {
		t.Errorf("worker.crashes = %d, want >= 1", n)
	}
	if n := rec.Counter("shard.retries"); n < 1 {
		t.Errorf("shard.retries = %d, want >= 1", n)
	}
	if n := rec.Counter("worker.spawns"); n < 2 {
		t.Errorf("worker.spawns = %d, want >= 2 (the crashed worker was replaced)", n)
	}
}

// TestChaosDistWorkerCrashExhausted crashes shard 1's worker on every
// attempt. Lenient mode survives on the other shards with the PR 8
// containment shape (lost shard counted skipped, one diagnostic);
// strict mode fails fast.
func TestChaosDistWorkerCrashExhausted(t *testing.T) {
	t.Setenv("CONCORD_SHARDRPC_CRASH_SHARD", "1")
	t.Setenv("CONCORD_SHARDRPC_CRASH_MODE", "always")
	lr, err := MustNew(DefaultOptions()).Learn(chaosSources(20), nil)
	if err != nil {
		t.Fatal(err)
	}
	test := shardCorpus(40)

	plog := newProgressLog()
	got, err := distEngine(t, 4, 2, func(o *Options) { o.Progress = plog.record }).Check(lr.Set, test, nil)
	if err != nil {
		t.Fatalf("lenient distributed check = %v, want degradation", err)
	}
	if got.Stats.Configs != 30 || got.Stats.Skipped != 10 {
		t.Errorf("stats = %d configs/%d skipped, want 30/10 (one lost shard of 10)", got.Stats.Configs, got.Stats.Skipped)
	}
	found := false
	for _, d := range got.Diagnostics {
		if strings.Contains(d.Message, "worker failed after 3 attempts") && strings.Contains(d.Source, "shard 1") {
			found = true
		}
	}
	if !found {
		t.Errorf("diagnostics missing the lost shard after 3 attempts: %+v", got.Diagnostics)
	}
	// The lost shard's sources still count toward progress.
	plog.assertMonotonic(t, telemetry.StageProcess, len(test))
	plog.assertMonotonic(t, telemetry.StageCheck, len(test))

	strict, err := distEngine(t, 4, 2, func(o *Options) { o.Strict = true }).Check(lr.Set, test, nil)
	if err == nil {
		t.Fatalf("strict distributed check completed (%+v), want fail-fast error", strict.Stats)
	}
	if !strings.Contains(err.Error(), "strict") {
		t.Errorf("strict error = %v, want strict-mode abort", err)
	}
}

// TestChaosDistCorruptResultFrame makes shard 1's worker emit a
// bit-flipped result frame on the first attempt: the checksum must
// reject it, the shard must be retried, and no wrong bytes may reach
// the report.
func TestChaosDistCorruptResultFrame(t *testing.T) {
	t.Setenv("CONCORD_SHARDRPC_CORRUPT_SHARD", "1")
	lr, err := MustNew(DefaultOptions()).Learn(chaosSources(20), nil)
	if err != nil {
		t.Fatal(err)
	}
	test := shardCorpus(40)
	base, err := MustNew(DefaultOptions()).Check(lr.Set, test, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewRecorder()
	got, err := distEngine(t, 4, 2, func(o *Options) { o.Telemetry = rec }).Check(lr.Set, test, nil)
	if err != nil {
		t.Fatalf("check with one corrupt frame = %v, want retried success", err)
	}
	if gotJSON, want := checkJSON(t, got), checkJSON(t, base); gotJSON != want {
		t.Errorf("corrupt-frame run diverges:\n got %s\nwant %s", gotJSON, want)
	}
	if n := rec.Counter("shard.retries"); n < 1 {
		t.Errorf("shard.retries = %d, want >= 1 (corrupt frame must trigger a retry)", n)
	}
}

// childWorkers scans /proc for live children of this process — after a
// distributed run drains, no worker may be left behind.
func childWorkers(t *testing.T) []int {
	t.Helper()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		t.Fatal(err)
	}
	me := os.Getpid()
	var kids []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		stat, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue // raced with exit
		}
		// Field 4 of /proc/<pid>/stat is the ppid; the comm field (2)
		// is parenthesized and may embed spaces, so scan past it.
		s := string(stat)
		close := strings.LastIndexByte(s, ')')
		if close < 0 {
			continue
		}
		fields := strings.Fields(s[close+1:])
		if len(fields) < 2 {
			continue
		}
		if ppid, err := strconv.Atoi(fields[1]); err == nil && ppid == me {
			kids = append(kids, pid)
		}
	}
	return kids
}

// TestDistNoOrphansNoLeaks runs the process backend twice (clean and
// crashing) and requires every worker process reaped and every
// pool goroutine joined once Check returns.
func TestDistNoOrphansNoLeaks(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("orphan scan reads /proc")
	}
	lr, err := MustNew(DefaultOptions()).Learn(chaosSources(20), nil)
	if err != nil {
		t.Fatal(err)
	}
	test := shardCorpus(40)
	before := runtime.NumGoroutine()

	if _, err := distEngine(t, 4, 2, nil).Check(lr.Set, test, nil); err != nil {
		t.Fatal(err)
	}
	t.Setenv("CONCORD_SHARDRPC_CRASH_SHARD", "1")
	t.Setenv("CONCORD_SHARDRPC_CRASH_MODE", "always")
	if _, err := distEngine(t, 4, 2, nil).Check(lr.Set, test, nil); err != nil {
		t.Fatal(err)
	}

	assertNoLeak(t, before)
	deadline := time.Now().Add(2 * time.Second)
	for {
		kids := childWorkers(t)
		if len(kids) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker processes orphaned after drain: %v", kids)
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDistCancelMidShard cancels a process-backend check while shard
// 0's worker is stalled mid-shard: the check must return the deadline
// error promptly, with every worker killed and reaped and every pool
// goroutine joined.
func TestDistCancelMidShard(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("orphan scan reads /proc")
	}
	t.Setenv("CONCORD_SHARDRPC_STALL_SHARD", "0")
	t.Setenv("CONCORD_SHARDRPC_STALL_MS", "20000")
	lr, err := MustNew(DefaultOptions()).Learn(chaosSources(20), nil)
	if err != nil {
		t.Fatal(err)
	}
	test := shardCorpus(40)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = distEngine(t, 4, 2, nil).CheckContext(ctx, lr.Set, test, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CheckContext = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled check took %v; the stalled worker was not killed", elapsed)
	}
	assertNoLeak(t, before)
	if kids := childWorkers(t); len(kids) != 0 {
		t.Errorf("worker processes left after a cancelled check: %v", kids)
	}
}

// TestProcessBackendOptionValidation: options that cannot cross a
// process boundary (functions) must be rejected up front, as must an
// unknown backend name.
func TestProcessBackendOptionValidation(t *testing.T) {
	opts := DefaultOptions()
	opts.ShardBackend = "threads"
	if _, err := New(opts); err == nil {
		t.Error("New accepted an unknown shard backend")
	}

	opts = DefaultOptions()
	opts.ShardBackend = ShardBackendProcess
	opts.UserTokens = []lexer.TokenSpec{{
		Name:    "odd",
		Pattern: `odd[0-9]+`,
		Parse:   func(s string) (netdata.Value, error) { return nil, nil },
	}}
	if _, err := New(opts); err == nil {
		t.Error("New accepted a custom Parse func on the process backend")
	}

	opts = DefaultOptions()
	opts.ShardBackend = ShardBackendProcess
	opts.UserTokens = []lexer.TokenSpec{{Name: "esi", Pattern: `esi-[0-9]+`}}
	if _, err := New(opts); err != nil {
		t.Errorf("New rejected a declarative user token on the process backend: %v", err)
	}
}

// TestShardOptionsValidate covers the shard options' validation — in
// process they are a no-op, not an error — and the partition helper's
// edges.
func TestShardOptionsValidate(t *testing.T) {
	for _, bad := range []func(*Options){
		func(o *Options) { o.Shards = -1 },
		func(o *Options) { o.ShardWorkers = -2 },
	} {
		opts := DefaultOptions()
		bad(&opts)
		if _, err := New(opts); err == nil {
			t.Error("New accepted negative shard options")
		}
	}
	for _, backend := range []string{"", ShardBackendInProcess} {
		opts := DefaultOptions()
		opts.Shards, opts.ShardWorkers, opts.ShardBackend = 4, 2, backend
		if _, err := New(opts); err != nil {
			t.Errorf("New rejected in-process shard options (backend %q): %v", backend, err)
		}
		if opts.shardingActive() {
			t.Errorf("in-process shard options (backend %q) leave the stream", backend)
		}
	}
	srcs := chaosSources(10)
	for _, tc := range []struct{ n, wantShards int }{
		{1, 1}, {3, 3}, {10, 10}, {16, 10}, {0, 1},
	} {
		shards := makeShards(srcs, tc.n)
		if len(shards) != tc.wantShards {
			t.Errorf("makeShards(10, %d) = %d shards, want %d", tc.n, len(shards), tc.wantShards)
		}
		total := 0
		last := ""
		for _, sh := range shards {
			total += len(sh.sources)
			for _, s := range sh.sources {
				if s.Name <= last {
					t.Fatalf("makeShards(10, %d): corpus order broken at %s", tc.n, s.Name)
				}
				last = s.Name
			}
		}
		if total != len(srcs) {
			t.Errorf("makeShards(10, %d) covers %d sources, want %d", tc.n, total, len(srcs))
		}
	}
}

// TestMakeShardsProperty checks the partition invariants over a
// randomized corpus-length/shard-count grid: shards are contiguous
// corpus slices, cover every source exactly once, never exceed the
// requested count, and never differ in size by more than one.
func TestMakeShardsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	type dims struct{ sources, shards int }
	cases := []dims{
		{0, 1}, {0, 5}, {1, 1}, {1, 8}, {2, 3}, {7, 7}, {8, 3}, {40, 16},
	}
	for i := 0; i < 200; i++ {
		cases = append(cases, dims{rng.Intn(300), 1 + rng.Intn(40)})
	}
	for _, tc := range cases {
		srcs := chaosSources(tc.sources)
		shards := makeShards(srcs, tc.shards)
		if len(shards) > tc.shards {
			t.Fatalf("makeShards(%d, %d) produced %d shards", tc.sources, tc.shards, len(shards))
		}
		seen, minSize, maxSize := 0, len(srcs)+1, 0
		for _, sh := range shards {
			n := len(sh.sources)
			if n == 0 {
				t.Fatalf("makeShards(%d, %d): empty shard %d", tc.sources, tc.shards, sh.index)
			}
			// Contiguity and no overlap: each shard must start exactly
			// where the previous one ended (aliasing the corpus slice).
			if &sh.sources[0] != &srcs[seen] {
				t.Fatalf("makeShards(%d, %d): shard %d is not the contiguous continuation at offset %d",
					tc.sources, tc.shards, sh.index, seen)
			}
			seen += n
			if n < minSize {
				minSize = n
			}
			if n > maxSize {
				maxSize = n
			}
		}
		if seen != len(srcs) {
			t.Fatalf("makeShards(%d, %d) covers %d sources", tc.sources, tc.shards, seen)
		}
		if len(shards) > 0 && maxSize-minSize > 1 {
			t.Fatalf("makeShards(%d, %d): size skew %d..%d exceeds 1", tc.sources, tc.shards, minSize, maxSize)
		}
	}
}
