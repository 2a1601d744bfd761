package core

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"concord/internal/telemetry"
)

// shardCorpus plants violations that only a corpus-wide view can see:
// distant configurations duplicating router-ids and vlans, so any
// split of the corpus separates a witness from its duplicates.
func shardCorpus(n int) []Source {
	srcs := chaosSources(n)
	for i := range srcs {
		if i > 0 && i%7 == 6 {
			// Reuse the router-id of a config several shards away.
			text := string(srcs[i].Text)
			text = strings.Replace(text,
				fmt.Sprintf("router-id 10.0.%d.1", i),
				fmt.Sprintf("router-id 10.0.%d.1", i/7), 1)
			srcs[i].Text = []byte(text)
		}
	}
	return srcs
}

// checkJSON renders a CheckResult the way the CLI does: canonical
// JSON, which is the byte-identity gate between check paths.
func checkJSON(t *testing.T, res *CheckResult) string {
	t.Helper()
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// learnJSON renders a learned set as canonical JSON — the byte-identity
// gate between learn paths.
func learnJSON(t *testing.T, lr *LearnResult) string {
	t.Helper()
	b, err := json.MarshalIndent(lr.Set, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// progressTick is one Options.Progress callback.
type progressTick struct {
	stage       telemetry.Stage
	done, total int
}

// progressLog records Options.Progress callbacks in arrival order.
type progressLog struct {
	mu    sync.Mutex
	ticks []progressTick
}

func newProgressLog() *progressLog { return &progressLog{} }

func (p *progressLog) record(stage telemetry.Stage, done, total int) {
	p.mu.Lock()
	p.ticks = append(p.ticks, progressTick{stage, done, total})
	p.mu.Unlock()
}

// assertMonotonic asserts stage's (done, total) stream is the
// monotonic global sequence 1..total over a constant total.
func (p *progressLog) assertMonotonic(t *testing.T, stage telemetry.Stage, total int) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, tick := range p.ticks {
		if tick.stage != stage {
			continue
		}
		n++
		if tick.done != n || tick.total != total {
			t.Errorf("%s: tick %d reported %d/%d, want monotonic global %d/%d", stage, n, tick.done, tick.total, n, total)
			return
		}
	}
	if n != total {
		t.Errorf("%s: %d progress ticks, want %d", stage, n, total)
	}
}

// assertStreamed asserts that stage's tick for configuration k arrives
// before the process tick for configuration k+2: a run that processed
// the whole corpus before the stage started fails it.
func (p *progressLog) assertStreamed(t *testing.T, stage telemetry.Stage) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	at := func(s telemetry.Stage, done int) int {
		for i, tick := range p.ticks {
			if tick.stage == s && tick.done == done {
				return i
			}
		}
		return -1
	}
	for k := 1; at(telemetry.StageProcess, k+2) >= 0; k++ {
		if at(stage, k) > at(telemetry.StageProcess, k+2) || at(stage, k) < 0 {
			t.Errorf("%s tick %d arrives after process tick %d: the corpus was processed ahead of the %s step", stage, k, k+2, stage)
			return
		}
	}
}

// TestStreamInterleavesStages proves that Check and Learn from sources
// stream: at Parallelism 1 each configuration's check or mine step runs
// before the process step two configurations later, so the run never
// holds the lexed corpus. At Parallelism 4 each stage still reports one
// exact global (done, total) stream. The first pass runs cold and the
// second replays the artifacts it wrote.
func TestStreamInterleavesStages(t *testing.T) {
	lr, err := MustNew(DefaultOptions()).Learn(chaosSources(20), nil)
	if err != nil {
		t.Fatal(err)
	}
	test := shardCorpus(30)
	cache := openTestCache(t)
	for _, parallelism := range []int{1, 4} {
		run := func(stage telemetry.Stage, do func(*Engine) error) {
			plog := newProgressLog()
			opts := DefaultOptions()
			opts.Parallelism = parallelism
			opts.Artifacts, opts.Incremental = cache, true
			opts.Progress = plog.record
			if err := do(MustNew(opts)); err != nil {
				t.Fatalf("parallelism %d: %s: %v", parallelism, stage, err)
			}
			plog.assertMonotonic(t, telemetry.StageProcess, len(test))
			plog.assertMonotonic(t, stage, len(test))
			if parallelism == 1 {
				plog.assertStreamed(t, stage)
			}
		}
		run(telemetry.StageCheck, func(e *Engine) error {
			_, err := e.Check(lr.Set, test, nil)
			return err
		})
		run(telemetry.StageMine, func(e *Engine) error {
			_, err := e.Learn(test, nil)
			return err
		})
	}
}

// TestShardedMatchesUnsharded pins that in-process Options.Shards and
// ShardWorkers are a no-op: at shard counts {1, 3, 16} the full
// CheckResult — cross-config Unique violations included — serializes
// byte-identical to an engine without them.
func TestShardedMatchesUnsharded(t *testing.T) {
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
		t.Fatal("baseline found no cross-config duplicates; the corpus does not exercise the reduce")
	}
	want := checkJSON(t, base)
	for _, shards := range []int{1, 3, 16} {
		opts := DefaultOptions()
		opts.Shards, opts.ShardWorkers = shards, 4
		got, err := MustNew(opts).Check(lr.Set, test, nil)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if gj := checkJSON(t, got); gj != want {
			t.Errorf("shards=%d: output diverges from the engine without shards:\n got %s\nwant %s", shards, gj, want)
		}
	}
}
