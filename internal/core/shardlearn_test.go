package core

import (
	"encoding/json"
	"strings"
	"testing"

	"concord/internal/faultinject"
	"concord/internal/telemetry"
)

// learnJSON renders a learned set as canonical JSON — the byte-identity
// gate between learn drivers.
func learnJSON(t *testing.T, lr *LearnResult) string {
	t.Helper()
	b, err := json.MarshalIndent(lr.Set, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestShardedLearnMatchesUnsharded is the differential gate for the
// sharded learn driver: for shard counts {1, 2, 3, 16} the learned set
// must serialize byte-identical to the unsharded pipeline's, and the
// corpus statistics must agree exactly.
func TestShardedLearnMatchesUnsharded(t *testing.T) {
	train := chaosSources(40)
	base, err := MustNew(DefaultOptions()).Learn(train, nil)
	if err != nil {
		t.Fatal(err)
	}
	if base.Set.Len() == 0 {
		t.Fatal("baseline learned no contracts; the corpus does not exercise the miners")
	}
	want := learnJSON(t, base)
	for _, shards := range []int{1, 2, 3, 16} {
		rec := telemetry.NewRecorder()
		got, err := shardEngine(t, shards, 4, func(o *Options) { o.Telemetry = rec }).Learn(train, nil)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if gj := learnJSON(t, got); gj != want {
			t.Errorf("shards=%d: learned set diverges from unsharded driver:\n got %s\nwant %s", shards, gj, want)
		}
		if got.Stats != base.Stats {
			t.Errorf("shards=%d: stats diverge: got %+v, want %+v", shards, got.Stats, base.Stats)
		}
		if shards > 1 {
			rep := rec.Snapshot()
			if n := rep.Counters["mine.shard_dispatches"]; n != int64(shards) {
				t.Errorf("shards=%d: mine.shard_dispatches = %d, want %d", shards, n, shards)
			}
			if _, ok := rep.Counters["mine.merge_ns"]; !ok {
				t.Errorf("shards=%d: mine.merge_ns missing from telemetry", shards)
			}
		}
	}
}

// TestShardedLearnTinyCorpus exercises the partition edges: fewer
// sources than shards and a single source.
func TestShardedLearnTinyCorpus(t *testing.T) {
	for _, n := range []int{1, 3} {
		train := chaosSources(n)
		base, err := MustNew(DefaultOptions()).Learn(train, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := shardEngine(t, 16, 4, nil).Learn(train, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if gj, want := learnJSON(t, got), learnJSON(t, base); gj != want {
			t.Errorf("n=%d: learned set diverges:\n got %s\nwant %s", n, gj, want)
		}
	}
}

// TestShardedLearnProgressMonotonic asserts a sharded learn run reports
// one global monotonic (done, total) stream per stage, exact over the
// whole corpus in both the process and mine stages, regardless of shard
// interleaving.
func TestShardedLearnProgressMonotonic(t *testing.T) {
	train := chaosSources(60)
	plog := newProgressLog()
	opts := DefaultOptions()
	opts.Shards = 7
	opts.ShardWorkers = 4
	opts.Progress = plog.record
	if _, err := MustNew(opts).Learn(train, nil); err != nil {
		t.Fatal(err)
	}
	plog.assertMonotonic(t, telemetry.StageProcess, len(train))
	plog.assertMonotonic(t, telemetry.StageMine, len(train))
}

// TestChaosShardedLearnPanicContained loses one whole learn shard to an
// injected panic. Lenient mode learns from the surviving shards with
// one error diagnostic and the lost shard's sources counted skipped;
// strict mode fails fast.
func TestChaosShardedLearnPanicContained(t *testing.T) {
	defer faultinject.Reset()
	train := chaosSources(40)
	faultinject.Set("core.shard", faultinject.PanicOn("shard worker crashed", "1"))

	got, err := shardEngine(t, 4, 2, nil).Learn(train, nil)
	if err != nil {
		t.Fatalf("lenient sharded learn = %v, want degradation", err)
	}
	if got.Stats.Configs != 30 || got.Stats.Skipped != 10 {
		t.Errorf("stats = %d configs/%d skipped, want 30/10 (one lost shard of 10)", got.Stats.Configs, got.Stats.Skipped)
	}
	if got.Set.Len() == 0 {
		t.Error("lenient learn mined nothing from the surviving shards")
	}
	found := false
	for _, d := range got.Diagnostics {
		if strings.Contains(d.Message, "shard worker crashed") && strings.Contains(d.Source, "shard 1") {
			found = true
		}
	}
	if !found {
		t.Errorf("diagnostics missing the contained shard panic: %+v", got.Diagnostics)
	}

	strict, err := shardEngine(t, 4, 2, func(o *Options) { o.Strict = true }).Learn(train, nil)
	if err == nil {
		t.Fatalf("strict sharded learn completed (%d contracts), want fail-fast error", strict.Set.Len())
	}
	if !strings.Contains(err.Error(), "strict") {
		t.Errorf("strict error = %v, want strict-mode abort", err)
	}
}

// TestChaosShardedLearnConfigPanicContained injects a per-config panic
// into the relational fold of a sharded learn: only that configuration
// leaves the corpus-wide relational evidence, mirroring the unsharded
// miner's containment granularity.
func TestChaosShardedLearnConfigPanicContained(t *testing.T) {
	defer faultinject.Reset()
	train := chaosSources(24)
	victim := train[13].Name
	faultinject.Set("mining.relational.config", faultinject.PanicOn("relational scan crashed", victim))

	got, err := shardEngine(t, 4, 2, nil).Learn(train, nil)
	if err != nil {
		t.Fatalf("lenient sharded learn = %v, want degradation", err)
	}
	if got.Stats.Configs != len(train) {
		t.Errorf("stats.Configs = %d, want %d (a relational panic does not drop the config)", got.Stats.Configs, len(train))
	}
	found := false
	for _, d := range got.Diagnostics {
		if strings.Contains(d.Message, "relational scan crashed") && d.Source == victim {
			found = true
		}
	}
	if !found {
		t.Errorf("diagnostics missing the contained config panic: %+v", got.Diagnostics)
	}
}
