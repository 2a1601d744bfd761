// Package shardrpc is the wire protocol between a sharded check or
// learn run and its worker processes. The parent serializes the run's
// configuration once as a Job, then streams one Task per shard over
// the worker's stdin and reads one Result per Task from its stdout.
// Every message travels inside an artifact frame (magic, schema,
// length, FNV-1a checksum — see internal/artifact/frame.go), so a
// truncated pipe, a torn write, or a crashed worker mid-frame is
// detected before a byte of payload is parsed, never half-applied.
//
// The payload encoding reuses the artifact codec idiom: uvarint counts
// bounded by the remaining input, length-prefixed strings, a sticky
// decode error, and an exact trailing-bytes check. Everything that
// crosses the wire is plain values — names, violation fields, site
// lists, coverage counts, dictionary-encoded mining evidence — never
// process-local state like intern IDs or compiled patterns, which is
// what keeps a distributed run byte-identical to the in-process
// driver: the parent merges worker Results through exactly the code
// path that merges in-process shard results. The engine options ride
// the Job as one opaque descriptor the engine encodes and decodes, so
// this package names none of them.
package shardrpc

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"concord/internal/artifact"
	"concord/internal/contracts"
	"concord/internal/diag"
	"concord/internal/mining"
)

// Frame magics for the three message kinds. CCS = Concord Shard.
var (
	JobMagic    = [4]byte{'C', 'C', 'S', 'J'}
	TaskMagic   = [4]byte{'C', 'C', 'S', 'T'}
	ResultMagic = [4]byte{'C', 'C', 'S', 'R'}
)

// SchemaVersion is the wire schema; any change to the encodings below
// must bump it so a version-skewed worker fails loudly at the frame
// layer instead of decoding garbage. Version 2 added the learn task
// kind; version 3 dropped the Job's two differential-baseline flags.
// Version 4 folded the learn-result frame into Result (an optional
// State beside Configs) and replaced the Job's option fields with the
// engine's options descriptor.
const SchemaVersion = 4

// Frame payload ceilings. Tasks carry raw config text and results can
// carry a fleet shard's violations or serialized mining evidence, so
// all are generous; the limits exist to bound what a corrupt length
// field can make ReadFrame allocate.
const (
	MaxJobBytes    uint64 = 1 << 30
	MaxTaskBytes   uint64 = 1 << 30
	MaxResultBytes uint64 = 1 << 30
)

// NamedBlob is one named input file (a configuration or metadata
// document) in transit.
type NamedBlob struct {
	Name string
	Text []byte
}

// Job carries everything a worker needs to reconstruct the parent's
// pipeline: the job kind, the engine options, the contract set, the
// metadata corpus, and the shared artifact cache directory. One Job is
// written per worker process, immediately after spawn.
type Job struct {
	// Learn selects the learn job kind: the worker folds each Task's
	// sources into a mining accumulator and answers with Results that
	// carry State instead of Configs (SetJSON is empty).
	Learn bool
	// Options is the engine's canonical options descriptor, opaque to
	// the wire protocol: the parent's engine encodes it and the
	// worker's engine decodes it.
	Options []byte
	// CacheDir is the parent's artifact cache directory, shared with
	// workers (the cache's atomic temp+rename stores are multi-process
	// safe); empty means no cache.
	CacheDir string
	SetJSON  []byte
	Meta     []NamedBlob
}

// Task is one shard dispatch: the contiguous corpus slice to check or
// learn from. Attempt counts prior dispatches of the same shard
// (retries and speculative re-runs), so test fault hooks can fire on
// the first attempt only.
type Task struct {
	Shard   int
	Attempt int
	Sources []NamedBlob
}

// Coverage is one configuration's per-line coverage counts.
type Coverage struct {
	SourceLines int
	Covered     int
	ByCategory  map[contracts.Category]int
}

// ConfigResult is one configuration's check outcome, in shard order.
// Contrib is the configuration's unique-contract value sites — the
// serialized UniqueAccumulator entry the parent replays through
// AddSites so UniqueCombiner.Reduce works across the process boundary.
type ConfigResult struct {
	Name       string
	Violations []contracts.Violation
	// Cov is nil when this configuration's check panicked and was
	// contained (lenient mode), mirroring the in-process shard.
	Cov      *Coverage
	CheckHit bool
	LexHit   bool
	// HashHex is the config's content hash (artifact cache manifest);
	// empty when the config cannot participate in caching.
	HashHex string
	Contrib map[string][]contracts.UniqueSite
}

// Result is one shard's complete outcome, for either job kind. A
// non-empty Err reports a deterministic in-band failure (a contained
// whole-shard panic or a strict-mode abort inside the worker); the
// parent maps it onto the shard-containment path and never retries it
// — retrying a deterministic fault would just repeat it.
type Result struct {
	Shard int
	Err   string
	Stack string
	// Lost reports the worker contained a whole-shard panic in lenient
	// mode: Diags carries the containment diagnostic and the parent
	// drops the shard exactly as the in-process driver would.
	Lost bool
	// Configs answers a check job, in shard order.
	Configs []ConfigResult
	// State answers a learn job: the shard's exported mining evidence.
	// It is nil when the shard produced none (Err or Lost), and decodes
	// as nil, never as an empty accumulator.
	State *mining.AccumulatorState
	// Skipped, Lines, and Patterns are the shard's corpus statistics
	// (ProcessStats inputs).
	Skipped  int
	Lines    int
	Patterns map[string]int
	Diags    []diag.Diagnostic
}

// --- codec primitives (artifact codec idiom) ---

type writer struct {
	b []byte
}

func (w *writer) uvarint(u uint64) { w.b = binary.AppendUvarint(w.b, u) }

func (w *writer) bool(v bool) {
	if v {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
}

func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.b = append(w.b, s...)
}

// f64 encodes a float64 as its fixed-width little-endian IEEE 754 bits:
// exact round-trip, no formatting ambiguity.
func (w *writer) f64(v float64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(v))
}

func (w *writer) bytes(b []byte) {
	w.uvarint(uint64(len(b)))
	w.b = append(w.b, b...)
}

type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	u, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("shardrpc: bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return u
}

func (r *reader) bool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.b) {
		r.fail("shardrpc: truncated bool at offset %d", r.off)
		return false
	}
	v := r.b[r.off]
	r.off++
	if v > 1 {
		r.fail("shardrpc: bad bool value %d at offset %d", v, r.off-1)
		return false
	}
	return v == 1
}

// count reads a uvarint bounded by the remaining input, so a corrupt
// length can never drive a huge allocation.
func (r *reader) count() int {
	u := r.uvarint()
	if r.err == nil && u > uint64(len(r.b)-r.off) {
		r.fail("shardrpc: count %d exceeds remaining input %d", u, len(r.b)-r.off)
		return 0
	}
	return int(u)
}

func (r *reader) str() string {
	n := r.count()
	if r.err != nil {
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

func (r *reader) bytes() []byte {
	n := r.count()
	if r.err != nil {
		return nil
	}
	b := make([]byte, n)
	copy(b, r.b[r.off:r.off+n])
	r.off += n
	return b
}

func (r *reader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b)-r.off < 8 {
		r.fail("shardrpc: truncated float64 at offset %d", r.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("shardrpc: %d trailing bytes", len(r.b)-r.off)
	}
	return nil
}

// --- Job ---

// EncodeJob serializes a Job payload (frame not included).
func EncodeJob(j *Job) []byte {
	w := &writer{}
	w.bool(j.Learn)
	w.bytes(j.Options)
	w.str(j.CacheDir)
	w.bytes(j.SetJSON)
	w.uvarint(uint64(len(j.Meta)))
	for _, m := range j.Meta {
		w.str(m.Name)
		w.bytes(m.Text)
	}
	return w.b
}

// DecodeJob parses a Job payload, returning an error on any defect.
func DecodeJob(payload []byte) (*Job, error) {
	r := &reader{b: payload}
	j := &Job{}
	j.Learn = r.bool()
	j.Options = r.bytes()
	j.CacheDir = r.str()
	j.SetJSON = r.bytes()
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		j.Meta = append(j.Meta, NamedBlob{Name: r.str(), Text: r.bytes()})
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return j, nil
}

// WriteJob frames and writes a Job to w.
func WriteJob(w io.Writer, j *Job) error {
	return artifact.WriteFrame(w, JobMagic, SchemaVersion, EncodeJob(j))
}

// ReadJob reads and decodes one framed Job from r. A clean EOF before
// the frame is io.EOF.
func ReadJob(r io.Reader) (*Job, error) {
	payload, err := artifact.ReadFrame(r, JobMagic, SchemaVersion, MaxJobBytes)
	if err != nil {
		return nil, err
	}
	return DecodeJob(payload)
}

// --- Task ---

// EncodeTask serializes a Task payload (frame not included).
func EncodeTask(t *Task) []byte {
	w := &writer{}
	w.uvarint(uint64(t.Shard))
	w.uvarint(uint64(t.Attempt))
	w.uvarint(uint64(len(t.Sources)))
	for _, s := range t.Sources {
		w.str(s.Name)
		w.bytes(s.Text)
	}
	return w.b
}

// DecodeTask parses a Task payload, returning an error on any defect.
func DecodeTask(payload []byte) (*Task, error) {
	r := &reader{b: payload}
	t := &Task{}
	t.Shard = int(r.uvarint())
	t.Attempt = int(r.uvarint())
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		t.Sources = append(t.Sources, NamedBlob{Name: r.str(), Text: r.bytes()})
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return t, nil
}

// WriteTask frames and writes a Task to w.
func WriteTask(w io.Writer, t *Task) error {
	return artifact.WriteFrame(w, TaskMagic, SchemaVersion, EncodeTask(t))
}

// ReadTask reads and decodes one framed Task from r. A clean EOF —
// the parent closed the pipe, no more shards — is io.EOF, the
// worker's signal to exit.
func ReadTask(r io.Reader) (*Task, error) {
	payload, err := artifact.ReadFrame(r, TaskMagic, SchemaVersion, MaxTaskBytes)
	if err != nil {
		return nil, err
	}
	return DecodeTask(payload)
}

// --- Result ---

// EncodeResult serializes a Result payload (frame not included). Map
// keys are encoded in sorted order so the same result always encodes
// to the same bytes.
func EncodeResult(res *Result) []byte {
	w := &writer{}
	w.uvarint(uint64(res.Shard))
	w.str(res.Err)
	w.str(res.Stack)
	w.bool(res.Lost)
	w.uvarint(uint64(len(res.Configs)))
	for i := range res.Configs {
		encodeConfigResult(w, &res.Configs[i])
	}
	w.bool(res.State != nil)
	if res.State != nil {
		encodeAccState(w, res.State)
	}
	w.uvarint(uint64(res.Skipped))
	w.uvarint(uint64(res.Lines))
	encodePatternCounts(w, res.Patterns)
	// Diagnostics ride as their canonical JSON: diag.Diagnostic already
	// defines a lossless JSON round-trip (Cause flattens to text).
	diags, _ := json.Marshal(res.Diags)
	w.bytes(diags)
	return w.b
}

// encodePatternCounts writes a shard's pattern → parameter-count map
// in sorted key order.
func encodePatternCounts(w *writer, patterns map[string]int) {
	pats := sortedMapKeys(patterns)
	w.uvarint(uint64(len(pats)))
	for _, p := range pats {
		w.str(p)
		w.uvarint(uint64(patterns[p]))
	}
}

func decodePatternCounts(r *reader) map[string]int {
	n := r.count()
	if n == 0 || r.err != nil {
		return nil
	}
	out := make(map[string]int, n)
	for i := 0; i < n && r.err == nil; i++ {
		p := r.str()
		out[p] = int(r.uvarint())
	}
	return out
}

func sortedMapKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func encodeConfigResult(w *writer, c *ConfigResult) {
	w.str(c.Name)
	w.uvarint(uint64(len(c.Violations)))
	for _, v := range c.Violations {
		w.str(string(v.Category))
		w.str(v.ContractID)
		w.str(v.Contract)
		w.str(v.File)
		w.uvarint(uint64(v.Line))
		w.str(v.Detail)
	}
	w.bool(c.Cov != nil)
	if c.Cov != nil {
		w.uvarint(uint64(c.Cov.SourceLines))
		w.uvarint(uint64(c.Cov.Covered))
		cats := make([]string, 0, len(c.Cov.ByCategory))
		for cat := range c.Cov.ByCategory {
			cats = append(cats, string(cat))
		}
		sort.Strings(cats)
		w.uvarint(uint64(len(cats)))
		for _, cat := range cats {
			w.str(cat)
			w.uvarint(uint64(c.Cov.ByCategory[contracts.Category(cat)]))
		}
	}
	w.bool(c.CheckHit)
	w.bool(c.LexHit)
	w.str(c.HashHex)
	ids := make([]string, 0, len(c.Contrib))
	for id := range c.Contrib {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	w.uvarint(uint64(len(ids)))
	for _, id := range ids {
		w.str(id)
		sites := c.Contrib[id]
		w.uvarint(uint64(len(sites)))
		for _, s := range sites {
			w.str(s.Key)
			w.str(s.Display)
			w.uvarint(uint64(s.Line))
		}
	}
}

// DecodeResult parses a Result payload, returning an error on any
// defect — a malformed field never yields a partial result.
func DecodeResult(payload []byte) (*Result, error) {
	r := &reader{b: payload}
	res := &Result{}
	res.Shard = int(r.uvarint())
	res.Err = r.str()
	res.Stack = r.str()
	res.Lost = r.bool()
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		res.Configs = append(res.Configs, decodeConfigResult(r))
	}
	if r.bool() {
		res.State = decodeAccState(r)
	}
	res.Skipped = int(r.uvarint())
	res.Lines = int(r.uvarint())
	res.Patterns = decodePatternCounts(r)
	diags := r.bytes()
	if err := r.done(); err != nil {
		return nil, err
	}
	if len(diags) > 0 {
		if err := json.Unmarshal(diags, &res.Diags); err != nil {
			return nil, fmt.Errorf("shardrpc: bad diagnostics JSON: %w", err)
		}
	}
	return res, nil
}

func decodeConfigResult(r *reader) ConfigResult {
	c := ConfigResult{Name: r.str()}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		c.Violations = append(c.Violations, contracts.Violation{
			Category:   contracts.Category(r.str()),
			ContractID: r.str(),
			Contract:   r.str(),
			File:       r.str(),
			Line:       int(r.uvarint()),
			Detail:     r.str(),
		})
	}
	if r.bool() {
		cov := &Coverage{
			SourceLines: int(r.uvarint()),
			Covered:     int(r.uvarint()),
		}
		if n := r.count(); r.err == nil {
			cov.ByCategory = make(map[contracts.Category]int, n)
			for i := 0; i < n && r.err == nil; i++ {
				cat := contracts.Category(r.str())
				cov.ByCategory[cat] = int(r.uvarint())
			}
		}
		c.Cov = cov
	}
	c.CheckHit = r.bool()
	c.LexHit = r.bool()
	c.HashHex = r.str()
	// Contrib is always non-nil for a decoded config — the in-process
	// accumulator receives a (possibly empty) map per config, and the
	// replayed fold must match it.
	c.Contrib = map[string][]contracts.UniqueSite{}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		id := r.str()
		var sites []contracts.UniqueSite
		for j, m := 0, r.count(); j < m && r.err == nil; j++ {
			sites = append(sites, contracts.UniqueSite{
				Key:     r.str(),
				Display: r.str(),
				Line:    int(r.uvarint()),
			})
		}
		c.Contrib[id] = sites
	}
	return c
}

// WriteResult frames and writes a Result to w.
func WriteResult(w io.Writer, res *Result) error {
	return artifact.WriteFrame(w, ResultMagic, SchemaVersion, EncodeResult(res))
}

// ReadResult reads and decodes one framed Result from r.
func ReadResult(r io.Reader) (*Result, error) {
	payload, err := artifact.ReadFrame(r, ResultMagic, SchemaVersion, MaxResultBytes)
	if err != nil {
		return nil, err
	}
	return DecodeResult(payload)
}
