package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"concord/internal/core"
	"concord/internal/telemetry"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share Op, the ID of the operation's root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the run's spans in memory; write stores them at exit.
// A nil tracer records nothing.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	t *tracer
	s span
}

// root starts an operation's root span.
func (t *tracer) root(name string) openSpan {
	o := t.begin(0, 0, name)
	o.s.Op = o.s.ID
	return o
}

// begin starts a span under parent within operation op.
func (t *tracer) begin(op, parent int64, name string) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, s: span{ID: t.ids.Add(1), Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.epoch))}}
}

// child starts a span under o in o's operation.
func (o openSpan) child(name string) openSpan { return o.t.begin(o.s.Op, o.s.ID, name) }

func (o openSpan) end() {
	if o.t == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.epoch))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// layerTime is the summed time of every span with one name.
type layerTime struct {
	busy, self time.Duration
	n          int
}

// totals sums, per span name, the busy time (span durations) and the
// self time (duration minus the part of the span its children cover).
func (t *tracer) totals() map[string]*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*layerTime)
	for _, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		d := time.Duration(s.End - s.Start)
		lt.busy += d
		lt.self += d - covered(s, children[s.ID])
		lt.n++
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	curS, curE = -1, -1
	for _, x := range iv {
		if x[0] > curE {
			total += curE - curS
			curS, curE = x[0], x[1]
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	return time.Duration(total + curE - curS)
}

// perOp returns name's busy and self seconds per operation of ops.
func perOp(tot map[string]*layerTime, name string, ops int) (busy, self float64) {
	lt := tot[name]
	if lt == nil || ops == 0 {
		return 0, 0
	}
	return lt.busy.Seconds() / float64(ops), lt.self.Seconds() / float64(ops)
}

// spansPerOp is the mean number of spans per traced operation.
func (t *tracer) spansPerOp() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	roots := 0
	for _, s := range t.spans {
		if s.Parent == 0 {
			roots++
		}
	}
	if roots == 0 {
		return 0
	}
	return float64(len(t.spans)) / float64(roots)
}

// write stores the spans as JSON in dir, one file per workload.
func (t *tracer) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	t.mu.Lock()
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}

// timedRounds runs each variant once per round, round-robin, until d
// has elapsed and at least two rounds are done, and returns each
// variant's operation times.
func timedRounds(d time.Duration, variants ...func() error) ([][]time.Duration, error) {
	out := make([][]time.Duration, len(variants))
	start := time.Now()
	for rounds := 0; rounds < 2 || time.Since(start) < d; rounds++ {
		for i, v := range variants {
			t := time.Now()
			if err := v(); err != nil {
				return nil, err
			}
			out[i] = append(out[i], time.Since(t))
		}
	}
	return out, nil
}

// withRecorder returns an engine with opts and rec attached.
func withRecorder(opts core.Options, rec *telemetry.Recorder) (*core.Engine, error) {
	opts.Telemetry = rec
	return core.New(opts)
}

// reportOverheads sets the traced/untraced ratio and the telemetry
// recorder's overhead from per-variant operation times.
func reportOverheads(m metrics, tr *tracer, plain, traced, withRec []time.Duration) {
	ref := ms(percentile(plain, 50))
	ratio := ms(percentile(traced, 50)) / ref
	m.set("trace.total_ratio", ratio, "ratio")
	m.set("trace.overhead_frac", ratio-1, "frac")
	m.set("trace.spans_per_op", tr.spansPerOp(), "count")
	if len(withRec) > 0 {
		m.set("telemetry.overhead_frac", ms(percentile(withRec, 50))/ref-1, "frac")
	}
}
