// Package telemetry is Concord's lightweight tracing and metrics layer.
// A Recorder collects named spans (wall time plus heap-allocation
// deltas), monotonic counters, and gauges from the learn/check
// pipelines, and snapshots them into a structured, JSON-serializable
// Report. It exists so that every pipeline stage — format inference,
// mining, minimization, checking — can attribute its cost precisely,
// and so that future performance work can prove its speedups against a
// machine-readable baseline.
//
// All Recorder methods are safe for concurrent use and are no-ops on a
// nil receiver, so instrumented code never needs to guard against an
// absent recorder:
//
//	var rec *telemetry.Recorder // nil: telemetry disabled
//	sp := rec.StartSpan("learn/mine")
//	defer sp.End()
//	rec.Add("mine.relation.candidates", int64(n))
package telemetry

import (
	"encoding/json"
	"io"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// Stage names a pipeline stage for progress reporting and span naming.
type Stage string

// The pipeline stages instrumented by the engine.
const (
	StageProcess  Stage = "process"
	StageMine     Stage = "mine"
	StageMinimize Stage = "minimize"
	StageCheck    Stage = "check"
	StageCoverage Stage = "coverage"
)

// Recorder accumulates spans, counters, and gauges. The zero value is
// not useful; use NewRecorder. A nil *Recorder is a valid "telemetry
// off" recorder: every method no-ops.
type Recorder struct {
	mu       sync.Mutex
	start    time.Time
	spans    []SpanReport
	counters map[string]int64
	gauges   map[string]float64
	// spanLimit, when positive, caps the retained spans; excess spans
	// are counted in spansDropped instead of appended. Resident
	// processes set it so a recorder that lives for weeks cannot grow
	// without bound.
	spanLimit    int
	spansDropped int64
}

// NewRecorder returns an empty recorder whose report clock starts now.
func NewRecorder() *Recorder {
	return &Recorder{
		start:    time.Now(),
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
	}
}

// Span is one in-flight measurement started by StartSpan. End (or
// EndCount) finalizes it into the recorder; a Span must be ended at
// most once and is not shared across goroutines.
type Span struct {
	rec        *Recorder
	name       string
	start      time.Time
	startAlloc uint64
	ended      bool
}

// heapAllocMetric is the runtime/metrics name of the cumulative bytes
// allocated to the heap, the counter runtime.MemStats.TotalAlloc also
// reports.
const heapAllocMetric = "/gc/heap/allocs:bytes"

// heapAlloc returns the cumulative bytes allocated to the heap. It
// reads runtime/metrics, which unlike runtime.ReadMemStats does not
// stop the world, so a span costs the same whatever the other
// goroutines are doing; spans are still meant for stage or request
// granularity, not per-line hot paths.
func heapAlloc() uint64 {
	sample := [1]metrics.Sample{{Name: heapAllocMetric}}
	metrics.Read(sample[:])
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

// StartSpan begins a named span. Use hierarchical slash-separated names
// ("learn/mine/relation") to group related spans in the report.
func (r *Recorder) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	return &Span{rec: r, name: name, start: time.Now(), startAlloc: heapAlloc()}
}

// End finalizes the span, recording its wall time and allocation delta.
// Safe on a nil span (from a nil recorder) and idempotent.
func (s *Span) End() { s.EndCount(-1) }

// EndCount finalizes the span like End and additionally records how
// many items the span processed (configs, contracts, ...); pass a
// negative count to omit it.
func (s *Span) EndCount(items int) {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	sr := SpanReport{
		Name:       s.name,
		StartMS:    float64(s.start.Sub(s.rec.start)) / float64(time.Millisecond),
		WallMS:     float64(time.Since(s.start)) / float64(time.Millisecond),
		AllocBytes: int64(heapAlloc() - s.startAlloc),
		Items:      items,
	}
	s.rec.mu.Lock()
	if s.rec.spanLimit > 0 && len(s.rec.spans) >= s.rec.spanLimit {
		s.rec.spansDropped++
	} else {
		s.rec.spans = append(s.rec.spans, sr)
	}
	s.rec.mu.Unlock()
}

// SetSpanLimit caps how many spans the recorder retains; once full,
// further spans are dropped (and counted in the report's SpansDropped)
// while counters and gauges keep accumulating. n <= 0 removes the cap.
// Long-lived recorders — a resident server's /metrics recorder — need a
// cap because every request records stage spans.
func (r *Recorder) SetSpanLimit(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spanLimit = n
	r.mu.Unlock()
}

// Merge folds a snapshot into the recorder: counters add, gauges
// overwrite, spans append (subject to the recorder's span limit, which
// counts overflow in SpansDropped). A resident server uses it to fold
// each request's recorder into the long-lived /metrics recorder.
func (r *Recorder) Merge(rep Report) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range rep.Counters {
		r.counters[k] += v
	}
	if len(rep.Gauges) > 0 && r.gauges == nil {
		r.gauges = make(map[string]float64, len(rep.Gauges))
	}
	for k, v := range rep.Gauges {
		r.gauges[k] = v
	}
	for _, sp := range rep.Spans {
		if r.spanLimit > 0 && len(r.spans) >= r.spanLimit {
			r.spansDropped++
			continue
		}
		r.spans = append(r.spans, sp)
	}
	r.spansDropped += rep.SpansDropped
}

// Add increments a named counter by delta.
func (r *Recorder) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Counter returns the current value of a named counter (0 if unset).
func (r *Recorder) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// SetGauge records the latest value of a named gauge.
func (r *Recorder) SetGauge(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// Gauge returns the current value of a named gauge (0 if unset).
func (r *Recorder) Gauge(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[name]
}

// SpanReport is one finished span in a report.
type SpanReport struct {
	// Name is the span's hierarchical name, e.g. "learn/mine/relation".
	Name string `json:"name"`
	// StartMS is the span's start offset from the recorder's start, in
	// milliseconds.
	StartMS float64 `json:"start_ms"`
	// WallMS is the span's wall-clock duration in milliseconds.
	WallMS float64 `json:"wall_ms"`
	// AllocBytes is the process-wide heap allocation delta over the
	// span. Concurrent spans attribute overlapping allocations to each
	// other; treat it as stage-level attribution, not exact accounting.
	AllocBytes int64 `json:"alloc_bytes"`
	// Items counts the units the span processed; -1 when not reported.
	Items int `json:"items,omitempty"`
}

// Report is an immutable snapshot of a recorder, the schema behind the
// CLI's --metrics-json output.
type Report struct {
	// Start is when the recorder was created.
	Start time.Time `json:"start"`
	// WallMS is the total wall time from recorder creation to snapshot,
	// in milliseconds.
	WallMS float64 `json:"wall_ms"`
	// Spans lists finished spans ordered by start time.
	Spans []SpanReport `json:"spans"`
	// SpansDropped counts spans discarded by the recorder's span limit.
	SpansDropped int64 `json:"spans_dropped,omitempty"`
	// Counters holds the monotonic counters.
	Counters map[string]int64 `json:"counters"`
	// Gauges holds the latest gauge values.
	Gauges map[string]float64 `json:"gauges,omitempty"`
}

// Snapshot captures the recorder's current state. The returned report
// shares no storage with the recorder. A nil recorder yields a zero
// report.
func (r *Recorder) Snapshot() Report {
	if r == nil {
		return Report{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := Report{
		Start:        r.start,
		WallMS:       float64(time.Since(r.start)) / float64(time.Millisecond),
		Spans:        append([]SpanReport(nil), r.spans...),
		SpansDropped: r.spansDropped,
		Counters:     make(map[string]int64, len(r.counters)),
	}
	sort.SliceStable(rep.Spans, func(i, j int) bool { return rep.Spans[i].StartMS < rep.Spans[j].StartMS })
	for k, v := range r.counters {
		rep.Counters[k] = v
	}
	if len(r.gauges) > 0 {
		rep.Gauges = make(map[string]float64, len(r.gauges))
		for k, v := range r.gauges {
			rep.Gauges[k] = v
		}
	}
	return rep
}

// WriteJSON writes an indented JSON snapshot of the recorder.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// ParseReport decodes a JSON report produced by WriteJSON.
func ParseReport(data []byte) (Report, error) {
	var rep Report
	err := json.Unmarshal(data, &rep)
	return rep, err
}
