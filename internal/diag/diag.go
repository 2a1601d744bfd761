// Package diag is Concord's structured diagnostics layer. Production
// corpora are messy — truncated files, binary blobs, foreign formats,
// pathological nesting — and the pipeline degrades around such inputs
// instead of dying on them. Every contained fault (a recovered panic, a
// skipped file, a truncated line, a skipped contract) is recorded as a
// Diagnostic carrying its severity, pipeline stage, source, and cause,
// so a run that returns partial results also explains exactly what was
// left out.
//
// A Collector is the concurrency-safe accumulator threaded through the
// engine via core.Options.Diagnostics, mirroring telemetry.Recorder:
// all methods are safe for concurrent use and no-ops on a nil receiver,
// so instrumented code never guards against an absent collector. The
// Report type is the stable JSON schema behind the CLI's
// -diagnostics-json output.
package diag

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"slices"
	"sync"
)

// Severity classifies how much a diagnostic degraded the run.
type Severity string

// The severities, ordered by impact.
const (
	// SevInfo notes something benign (e.g. an empty input file).
	SevInfo Severity = "info"
	// SevWarn marks degraded-but-usable input: a truncated over-long
	// line, a capped nesting depth, an exhausted line budget.
	SevWarn Severity = "warn"
	// SevError marks dropped work: a source skipped entirely, a contract
	// whose evaluation was abandoned, a recovered worker panic.
	SevError Severity = "error"
)

// Diagnostic is one contained fault or degradation, localized to a
// pipeline stage and (when known) an input source and line.
type Diagnostic struct {
	// Severity classifies the impact (info, warn, error).
	Severity Severity `json:"severity"`
	// Stage names the pipeline stage that recorded the diagnostic
	// (load, process, mine, minimize, check, coverage).
	Stage string `json:"stage"`
	// Source identifies the input file or contract concerned; empty for
	// corpus-wide diagnostics.
	Source string `json:"source,omitempty"`
	// Line is the 1-based line number when the diagnostic is localized;
	// 0 means the whole source.
	Line int `json:"line,omitempty"`
	// Message is the human-readable description.
	Message string `json:"message"`
	// Cause is the wrapped underlying error, when one exists. It is
	// serialized as its Error() text.
	Cause error `json:"-"`
	// Stack is the captured goroutine stack for recovered panics.
	Stack string `json:"stack,omitempty"`
}

// jsonDiagnostic is the wire form of Diagnostic: Cause flattens to its
// error text so the report schema is plain JSON.
type jsonDiagnostic struct {
	Severity Severity `json:"severity"`
	Stage    string   `json:"stage"`
	Source   string   `json:"source,omitempty"`
	Line     int      `json:"line,omitempty"`
	Message  string   `json:"message"`
	Cause    string   `json:"error,omitempty"`
	Stack    string   `json:"stack,omitempty"`
}

// MarshalJSON serializes the diagnostic with Cause rendered as text
// under the "error" key.
func (d Diagnostic) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonDiagnostic{
		Severity: d.Severity, Stage: d.Stage, Source: d.Source,
		Line: d.Line, Message: d.Message, Cause: causeText(d.Cause), Stack: d.Stack,
	})
}

// UnmarshalJSON restores a serialized diagnostic; a non-empty "error"
// value becomes an opaque Cause.
func (d *Diagnostic) UnmarshalJSON(data []byte) error {
	var jd jsonDiagnostic
	if err := json.Unmarshal(data, &jd); err != nil {
		return err
	}
	*d = Diagnostic{
		Severity: jd.Severity, Stage: jd.Stage, Source: jd.Source,
		Line: jd.Line, Message: jd.Message, Stack: jd.Stack,
	}
	if jd.Cause != "" {
		d.Cause = errors.New(jd.Cause)
	}
	return nil
}

// String renders "severity: stage: source:line: message".
func (d Diagnostic) String() string {
	s := string(d.Severity) + ": " + d.Stage
	if d.Source != "" {
		s += ": " + d.Source
		if d.Line > 0 {
			s += fmt.Sprintf(":%d", d.Line)
		}
	}
	return s + ": " + d.Message
}

// AsError converts the diagnostic to an error wrapping its cause, for
// strict-mode callers that abort instead of degrading.
func (d Diagnostic) AsError() error {
	if d.Cause != nil {
		return fmt.Errorf("%s: %s: %w", d.Stage, sourceOr(d.Source), d.Cause)
	}
	return fmt.Errorf("%s: %s: %s", d.Stage, sourceOr(d.Source), d.Message)
}

func sourceOr(s string) string {
	if s == "" {
		return "<corpus>"
	}
	return s
}

// FromPanic builds an error diagnostic from a recovered panic value,
// capturing the current goroutine stack. A panic value that is itself an
// error becomes the diagnostic's Cause, so injected or wrapped errors
// survive containment intact.
func FromPanic(stage, source string, v any) Diagnostic {
	d := Diagnostic{
		Severity: SevError,
		Stage:    stage,
		Source:   source,
		Message:  fmt.Sprintf("panic: %v", v),
		Stack:    string(debug.Stack()),
	}
	if err, ok := v.(error); ok {
		d.Cause = err
	}
	return d
}

// Join converts diagnostics to a single error (errors.Join of each
// diagnostic's AsError), or nil when the slice is empty. Strict-mode
// pipelines use it to fail fast with the same per-file information a
// lenient run would have reported as diagnostics.
func Join(ds []Diagnostic) error {
	if len(ds) == 0 {
		return nil
	}
	errs := make([]error, len(ds))
	for i, d := range ds {
		errs[i] = d.AsError()
	}
	return errors.Join(errs...)
}

// Collector accumulates diagnostics. The zero value is not useful; use
// New. A nil *Collector is a valid "diagnostics off" collector: every
// method no-ops (reads return zero values).
type Collector struct {
	mu sync.Mutex
	ds []Diagnostic
}

// New returns an empty collector.
func New() *Collector { return &Collector{} }

// Add appends one diagnostic.
func (c *Collector) Add(d Diagnostic) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.ds = append(c.ds, d)
	c.mu.Unlock()
}

// Addf appends a diagnostic built from a format string.
func (c *Collector) Addf(sev Severity, stage, source string, line int, format string, args ...any) {
	if c == nil {
		return
	}
	c.Add(Diagnostic{
		Severity: sev, Stage: stage, Source: source, Line: line,
		Message: fmt.Sprintf(format, args...),
	})
}

// Len returns the number of collected diagnostics.
func (c *Collector) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ds)
}

// Count returns the number of diagnostics at the given severity.
func (c *Collector) Count(sev Severity) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, d := range c.ds {
		if d.Severity == sev {
			n++
		}
	}
	return n
}

// All returns a copy of the collected diagnostics in insertion order.
func (c *Collector) All() []Diagnostic {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Diagnostic(nil), c.ds...)
}

// Sorted returns a copy of the collected diagnostics in canonical
// order: stage, source, line, message, severity, then cause text. A
// run's report uses it so the order does not depend on which worker,
// shard, or process recorded a diagnostic first. All keeps insertion
// order, which callers that drain a collector by position rely on.
func (c *Collector) Sorted() []Diagnostic {
	ds := c.All()
	slices.SortStableFunc(ds, func(a, b Diagnostic) int {
		return cmp.Or(
			cmp.Compare(a.Stage, b.Stage),
			cmp.Compare(a.Source, b.Source),
			cmp.Compare(a.Line, b.Line),
			cmp.Compare(a.Message, b.Message),
			cmp.Compare(a.Severity, b.Severity),
			cmp.Compare(causeText(a.Cause), causeText(b.Cause)),
		)
	})
	return ds
}

func causeText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// Merge appends every diagnostic of other into c. The engine uses it to
// fold per-run collectors into a caller-attached one.
func (c *Collector) Merge(other *Collector) {
	if c == nil || other == nil {
		return
	}
	for _, d := range other.All() {
		c.Add(d)
	}
}

// Report is the stable JSON schema of a diagnostics snapshot (the
// CLI's -diagnostics-json output).
type Report struct {
	// Total is the number of diagnostics.
	Total int `json:"total"`
	// Errors, Warnings, and Infos count diagnostics by severity.
	Errors   int `json:"errors"`
	Warnings int `json:"warnings"`
	Infos    int `json:"infos"`
	// Diagnostics lists every diagnostic in insertion order.
	Diagnostics []Diagnostic `json:"diagnostics"`
}

// Report snapshots the collector. The result shares no storage with the
// collector; a nil collector yields a zero report.
func (c *Collector) Report() Report {
	ds := c.All()
	rep := Report{Total: len(ds), Diagnostics: ds}
	for _, d := range ds {
		switch d.Severity {
		case SevError:
			rep.Errors++
		case SevWarn:
			rep.Warnings++
		default:
			rep.Infos++
		}
	}
	return rep
}

// WriteJSON writes an indented JSON report snapshot.
func (c *Collector) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c.Report())
}

// ParseReport decodes a JSON report produced by WriteJSON.
func ParseReport(data []byte) (Report, error) {
	var rep Report
	err := json.Unmarshal(data, &rep)
	return rep, err
}
