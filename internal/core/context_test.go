package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"concord/internal/telemetry"
)

func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{Support: -1, Confidence: 0.9},
		{Support: 5, Confidence: -0.5},
		{Support: 5, Confidence: 1.5},
		{Support: 5, Confidence: 0.9, ScoreThreshold: -1},
		{Support: 5, Confidence: 0.9, MaxFanout: -1},
		{Support: 5, Confidence: math.NaN()},
		{Support: 5, Confidence: 0.9, ScoreThreshold: math.NaN()},
	}
	for _, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", o)
		}
		if _, err := New(o); err == nil {
			t.Errorf("New accepted %+v", o)
		}
	}
	if err := DefaultOptions().Validate(); err != nil {
		t.Errorf("DefaultOptions rejected: %v", err)
	}
	inf := DefaultOptions()
	inf.ScoreThreshold = math.Inf(1)
	if err := inf.Validate(); err != nil {
		t.Errorf("infinite ScoreThreshold rejected: %v", err)
	}
	// The zero Options value still selects defaults in New, preserving
	// the seed behavior relied on by harness callers.
	if _, err := New(Options{}); err != nil {
		t.Errorf("New(Options{}) = %v, want defaults", err)
	}
}

func TestLearnContextCancelledBeforeStart(t *testing.T) {
	srcs, meta, _ := edgeSources(t, "E1", 0.25)
	eng := MustNew(DefaultOptions())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.LearnContext(ctx, srcs, meta); !errors.Is(err, context.Canceled) {
		t.Errorf("LearnContext = %v, want context.Canceled", err)
	}
	if _, err := eng.CheckContext(ctx, nil, srcs, meta); !errors.Is(err, context.Canceled) {
		t.Errorf("CheckContext = %v, want context.Canceled", err)
	}
	if _, _, err := eng.ProcessContext(ctx, srcs, meta); !errors.Is(err, context.Canceled) {
		t.Errorf("ProcessContext = %v, want context.Canceled", err)
	}
}

// TestLearnContextCancelledMidMining cancels during the mining stage
// and asserts the pipeline aborts promptly with ctx.Err() and leaks no
// worker goroutines.
func TestLearnContextCancelledMidMining(t *testing.T) {
	srcs, meta, _ := edgeSources(t, "E1", 0.5)
	opts := DefaultOptions()
	opts.Parallelism = 4
	before := runtime.NumGoroutine()

	// Cancel as soon as the mining stage reports its first unit of
	// progress, so cancellation lands mid-stage, not before it.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	opts.Progress = func(stage telemetry.Stage, done, total int) {
		if stage == telemetry.StageMine {
			once.Do(cancel)
		}
	}
	eng := MustNew(opts)
	start := time.Now()
	_, err := eng.LearnContext(ctx, srcs, meta)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("LearnContext = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("cancellation took %v", d)
	}

	// Worker goroutines drain synchronously before LearnContext
	// returns; allow the runtime a moment to reap exiting goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCheckContextCancelledMidCheck(t *testing.T) {
	srcs, meta, _ := edgeSources(t, "E1", 0.5)
	opts := DefaultOptions()
	opts.Parallelism = 4
	eng := MustNew(opts)
	lr, err := eng.Learn(srcs, meta)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	opts.Progress = func(stage telemetry.Stage, done, total int) {
		if stage == telemetry.StageCheck {
			once.Do(cancel)
		}
	}
	eng2 := MustNew(opts)
	if _, err := eng2.CheckContext(ctx, lr.Set, srcs, meta); !errors.Is(err, context.Canceled) {
		t.Errorf("CheckContext = %v, want context.Canceled", err)
	}
}

// TestProgressReportsEveryStage verifies the Progress hook sees each
// stage complete and that done counts are monotone per stage and reach
// their totals.
func TestProgressReportsEveryStage(t *testing.T) {
	srcs, meta, _ := edgeSources(t, "E1", 0.25)
	opts := DefaultOptions()
	opts.Parallelism = 4
	type prog struct{ done, total int }
	seen := make(map[telemetry.Stage]prog)
	opts.Progress = func(stage telemetry.Stage, done, total int) {
		p := seen[stage]
		if done > p.done {
			p.done = done
		}
		p.total = total
		seen[stage] = p
	}
	eng := MustNew(opts)
	lr, err := eng.Learn(srcs, meta)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Check(lr.Set, srcs, meta); err != nil {
		t.Fatal(err)
	}
	for _, stage := range []telemetry.Stage{
		telemetry.StageProcess, telemetry.StageMine,
		telemetry.StageMinimize, telemetry.StageCheck,
	} {
		p, ok := seen[stage]
		if !ok {
			t.Errorf("stage %s never reported progress", stage)
			continue
		}
		if p.done != p.total || p.total == 0 {
			t.Errorf("stage %s finished at %d/%d", stage, p.done, p.total)
		}
	}
}

// TestTelemetryCoversPipeline runs learn+check with a recorder and
// asserts the per-stage spans and the miner/checker counters landed.
func TestTelemetryCoversPipeline(t *testing.T) {
	srcs, meta, _ := edgeSources(t, "E1", 0.25)
	opts := DefaultOptions()
	opts.Telemetry = telemetry.NewRecorder()
	eng := MustNew(opts)
	lr, err := eng.Learn(srcs, meta)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Check(lr.Set, srcs, meta); err != nil {
		t.Fatal(err)
	}
	rep := opts.Telemetry.Snapshot()

	spans := make(map[string]int)
	for _, sp := range rep.Spans {
		spans[sp.Name]++
		if sp.WallMS < 0 {
			t.Errorf("span %s has negative wall time", sp.Name)
		}
	}
	for _, name := range []string{
		"process", "mine", "mine/stats", "mine/present", "mine/ordering",
		"mine/type", "mine/sequence", "mine/unique", "mine/relation",
		"minimize", "check",
	} {
		if spans[name] == 0 {
			t.Errorf("missing span %q (have %v)", name, spans)
		}
	}
	for _, counter := range []string{
		"mine.present.candidates", "mine.present.accepted",
		"mine.relation.candidates", "mine.relation.accepted",
		"check.contracts_evaluated",
	} {
		if rep.Counters[counter] == 0 {
			t.Errorf("counter %q is zero", counter)
		}
	}
	if rep.Gauges["corpus.configs"] != float64(len(srcs)) {
		t.Errorf("corpus.configs gauge = %v, want %d", rep.Gauges["corpus.configs"], len(srcs))
	}
	// Witness-cache instrumentation: the checker must report lookups
	// once at least one relational contract was evaluated.
	if rep.Counters["check.witness_cache.hits"]+rep.Counters["check.witness_cache.misses"] == 0 {
		t.Error("witness cache counters never recorded")
	}
}
