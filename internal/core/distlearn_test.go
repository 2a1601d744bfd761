package core

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"concord/internal/telemetry"
)

// TestDistLearnMatchesInProcess is the cross-backend differential gate
// for learning: at every (shards, workers) combination the process
// backend must mine a learned set byte-identical to the unsharded
// in-process pipeline's, with exact corpus statistics.
func TestDistLearnMatchesInProcess(t *testing.T) {
	train := chaosSources(40)
	base, err := MustNew(DefaultOptions()).Learn(train, nil)
	if err != nil {
		t.Fatal(err)
	}
	if base.Set.Len() == 0 {
		t.Fatal("baseline learned no contracts; the corpus does not exercise the miners")
	}
	want := learnJSON(t, base)
	for _, shards := range []int{1, 3, 16} {
		for _, workers := range []int{1, 4} {
			rec := telemetry.NewRecorder()
			got, err := distEngine(t, shards, workers, func(o *Options) { o.Telemetry = rec }).Learn(train, nil)
			if err != nil {
				t.Fatalf("process backend %d shards / %d workers: %v", shards, workers, err)
			}
			if gj := learnJSON(t, got); gj != want {
				t.Errorf("%d shards / %d workers diverge from the in-process learn:\n got %s\nwant %s",
					shards, workers, gj, want)
			}
			if got.Stats != base.Stats {
				t.Errorf("%d shards / %d workers: stats diverge: got %+v, want %+v", shards, workers, got.Stats, base.Stats)
			}
			rep := rec.Snapshot()
			wantShards := int64(shards)
			if shards > len(train) {
				wantShards = int64(len(train))
			}
			if n := rep.Counters["mine.shard_dispatches"]; n != wantShards {
				t.Errorf("%d shards / %d workers: mine.shard_dispatches = %d, want %d", shards, workers, n, wantShards)
			}
			spans := 0
			for _, sp := range rep.Spans {
				if strings.HasPrefix(sp.Name, "dist.learn[") {
					spans++
				}
			}
			if int64(spans) != wantShards {
				t.Errorf("%d shards / %d workers: %d dist.learn spans, want %d", shards, workers, spans, wantShards)
			}
		}
	}
}

// TestDistLearnMaxFanout pins that MaxFanout crosses the process
// boundary: on this corpus a fanout cap of 1 binds (the learned set
// differs from the default-fanout set), and under it the process
// backend must still learn exactly what the in-process pipeline does.
func TestDistLearnMaxFanout(t *testing.T) {
	train := chaosSources(30)
	def, err := MustNew(DefaultOptions()).Learn(train, nil)
	if err != nil {
		t.Fatal(err)
	}
	capped := DefaultOptions()
	capped.MaxFanout = 1
	base, err := MustNew(capped).Learn(train, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := learnJSON(t, base)
	if want == learnJSON(t, def) {
		t.Fatal("MaxFanout 1 learns the default-fanout set; the corpus does not exercise the cap")
	}
	got, err := distEngine(t, 3, 2, func(o *Options) { o.MaxFanout = 1 }).Learn(train, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gj := learnJSON(t, got); gj != want {
		t.Errorf("process-backend learn at MaxFanout 1 diverges from in-process:\n got %s\nwant %s", gj, want)
	}
}

// TestDistLearnProgressMonotonic: the process backend's learn progress
// is the same exact global (done, total) stream per stage the
// in-process driver reports.
func TestDistLearnProgressMonotonic(t *testing.T) {
	train := chaosSources(40)
	plog := newProgressLog()
	eng := distEngine(t, 4, 2, func(o *Options) { o.Progress = plog.record })
	if _, err := eng.Learn(train, nil); err != nil {
		t.Fatal(err)
	}
	plog.assertMonotonic(t, telemetry.StageProcess, len(train))
	plog.assertMonotonic(t, telemetry.StageMine, len(train))
}

// TestDistLearnWorkerCrashRetried SIGKILLs the worker holding learn
// shard 1 on its first attempt: the scheduler must respawn and
// re-dispatch, and the learned set must stay byte-identical.
func TestDistLearnWorkerCrashRetried(t *testing.T) {
	t.Setenv("CONCORD_SHARDRPC_CRASH_SHARD", "1")
	train := chaosSources(40)
	base, err := MustNew(DefaultOptions()).Learn(train, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewRecorder()
	got, err := distEngine(t, 4, 2, func(o *Options) { o.Telemetry = rec }).Learn(train, nil)
	if err != nil {
		t.Fatalf("learn with one worker crash = %v, want retried success", err)
	}
	if gj, want := learnJSON(t, got), learnJSON(t, base); gj != want {
		t.Errorf("crash-retried learn diverges:\n got %s\nwant %s", gj, want)
	}
	if n := rec.Counter("worker.crashes"); n < 1 {
		t.Errorf("worker.crashes = %d, want >= 1", n)
	}
	if n := rec.Counter("shard.retries"); n < 1 {
		t.Errorf("shard.retries = %d, want >= 1", n)
	}
}

// TestChaosDistLearnCrashExhausted crashes learn shard 1's worker on
// every attempt. Lenient mode learns from the surviving shards with
// the lost shard counted skipped and one diagnostic; strict fails
// fast.
func TestChaosDistLearnCrashExhausted(t *testing.T) {
	t.Setenv("CONCORD_SHARDRPC_CRASH_SHARD", "1")
	t.Setenv("CONCORD_SHARDRPC_CRASH_MODE", "always")
	train := chaosSources(40)

	got, err := distEngine(t, 4, 2, nil).Learn(train, nil)
	if err != nil {
		t.Fatalf("lenient distributed learn = %v, want degradation", err)
	}
	if got.Stats.Configs != 30 || got.Stats.Skipped != 10 {
		t.Errorf("stats = %d configs/%d skipped, want 30/10 (one lost shard of 10)", got.Stats.Configs, got.Stats.Skipped)
	}
	if got.Set.Len() == 0 {
		t.Error("lenient learn mined nothing from the surviving shards")
	}
	found := false
	for _, d := range got.Diagnostics {
		if strings.Contains(d.Message, "worker failed") && strings.Contains(d.Source, "shard 1") {
			found = true
		}
	}
	if !found {
		t.Errorf("diagnostics missing the lost shard: %+v", got.Diagnostics)
	}

	strict, err := distEngine(t, 4, 2, func(o *Options) { o.Strict = true }).Learn(train, nil)
	if err == nil {
		t.Fatalf("strict distributed learn completed (%d contracts), want fail-fast error", strict.Set.Len())
	}
	if !strings.Contains(err.Error(), "strict") {
		t.Errorf("strict error = %v, want strict-mode abort", err)
	}
}

// TestChaosDistLearnCorruptFrame makes learn shard 1's worker emit a
// bit-flipped result frame on the first attempt: the checksum must
// reject it, the shard must be retried, and no partially-decoded
// accumulator may reach the merge.
func TestChaosDistLearnCorruptFrame(t *testing.T) {
	t.Setenv("CONCORD_SHARDRPC_CORRUPT_SHARD", "1")
	train := chaosSources(40)
	base, err := MustNew(DefaultOptions()).Learn(train, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewRecorder()
	got, err := distEngine(t, 4, 2, func(o *Options) { o.Telemetry = rec }).Learn(train, nil)
	if err != nil {
		t.Fatalf("learn with one corrupt frame = %v, want retried success", err)
	}
	if gj, want := learnJSON(t, got), learnJSON(t, base); gj != want {
		t.Errorf("corrupt-frame learn diverges:\n got %s\nwant %s", gj, want)
	}
	if n := rec.Counter("shard.retries"); n < 1 {
		t.Errorf("shard.retries = %d, want >= 1 (corrupt frame must trigger a retry)", n)
	}
}

// TestDistLearnStragglerSpeculated stalls learn shard 0's first attempt
// well past the speculation threshold: a twin attempt must win and the
// learned set must stay byte-identical.
func TestDistLearnStragglerSpeculated(t *testing.T) {
	t.Setenv("CONCORD_SHARDRPC_STALL_SHARD", "0")
	t.Setenv("CONCORD_SHARDRPC_STALL_MS", "20000")
	train := chaosSources(40)
	base, err := MustNew(DefaultOptions()).Learn(train, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewRecorder()
	eng := distEngine(t, 4, 2, func(o *Options) { o.Telemetry = rec })
	eng.dist = &distPolicy{maxRetries: 2, specMultiple: 2, specFloor: 100 * time.Millisecond}
	start := time.Now()
	got, err := eng.Learn(train, nil)
	if err != nil {
		t.Fatalf("learn with one straggler = %v, want speculated success", err)
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Errorf("run took %v; speculation did not cut the 20s straggler short", elapsed)
	}
	if gj, want := learnJSON(t, got), learnJSON(t, base); gj != want {
		t.Errorf("speculated learn diverges:\n got %s\nwant %s", gj, want)
	}
	if n := rec.Counter("shard.speculative_wins"); n != 1 {
		t.Errorf("shard.speculative_wins = %d, want 1", n)
	}
}

// TestDistLearnNoOrphansNoLeaks: after clean and crashing distributed
// learn runs, every worker process is reaped and every scheduler
// goroutine joined.
func TestDistLearnNoOrphansNoLeaks(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("orphan scan reads /proc")
	}
	train := chaosSources(40)
	before := runtime.NumGoroutine()

	if _, err := distEngine(t, 4, 2, nil).Learn(train, nil); err != nil {
		t.Fatal(err)
	}
	t.Setenv("CONCORD_SHARDRPC_CRASH_SHARD", "1")
	t.Setenv("CONCORD_SHARDRPC_CRASH_MODE", "always")
	if _, err := distEngine(t, 4, 2, nil).Learn(train, nil); err != nil {
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
