// Package shardrpc is the wire protocol between a sharded check run
// and its worker processes. The parent serializes the run's
// configuration once as a Job, then streams one Task per shard over
// the worker's stdin and reads one Result per Task from its stdout.
// Every message travels inside an artifact frame (magic, schema,
// length, FNV-1a checksum — see internal/artifact/frame.go), so a
// truncated pipe, a torn write, or a crashed worker mid-frame is
// detected before a byte of payload is parsed, never half-applied.
//
// Payloads are written with the artifact codec's Writer and Reader
// (uvarint counts bounded by the remaining input, length-prefixed
// strings, a sticky decode error, an exact trailing-bytes check), and a
// configuration's check outcome travels as the very artifact.CheckEntry
// record the check-artifact cache stores, so one encoder and one
// decoder, bounds checks included, serve both. Everything that crosses
// the wire is plain values — names, violation fields, site lists,
// coverage counts — never process-local state like intern IDs or
// compiled patterns, which is what keeps a distributed run
// byte-identical to the in-process stream: the parent turns worker
// Results back into the per-config rows the stream produces, and
// reduces them through the same code. The engine options ride the Job
// as one opaque descriptor the engine encodes and decodes, so this
// package names none of them.
package shardrpc

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"concord/internal/artifact"
	"concord/internal/diag"
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
// engine's options descriptor. Version 5 carries each configuration's
// check outcome as an artifact.CheckEntry record. Version 6 dropped the
// learn job kind: the Job's Learn flag and the Result's State.
const SchemaVersion = 6

// Frame payload ceilings. Tasks carry raw config text and results can
// carry a fleet shard's violations, so all are generous; the limits exist to bound what a corrupt length
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
// check pipeline: the engine options, the contract set, the metadata
// corpus, and the shared artifact cache directory. One Job is written
// per worker process, immediately after spawn.
type Job struct {
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

// Task is one shard dispatch: the contiguous corpus slice to check.
// Attempt counts prior dispatches of the same shard (its retries after
// a crashed worker), so test fault hooks can fire on the first attempt
// only.
type Task struct {
	Shard   int
	Attempt int
	Sources []NamedBlob
}

// ConfigResult is one configuration's check outcome, in shard order:
// its artifact bookkeeping for the parent-side manifest, and Entry, the
// same record the check-artifact cache stores — violations, coverage
// counts, and the unique-contract value sites the parent's cross-config
// merge reads.
type ConfigResult struct {
	Name string
	// HashHex is the config's content hash (artifact cache manifest);
	// empty when the config cannot participate in caching.
	HashHex  string
	LexHit   bool
	CheckHit bool
	// HasCoverage is false when this configuration's check panicked and
	// was contained (lenient mode), mirroring the in-process stream:
	// Entry then carries only the recovered unique sites.
	HasCoverage bool
	Entry       artifact.CheckEntry
}

// Result is one shard's complete outcome. A
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
	// Configs is the shard's per-configuration outcomes, in shard order.
	Configs []ConfigResult
	// Skipped, Lines, and Patterns are the shard's corpus statistics
	// (ProcessStats inputs).
	Skipped  int
	Lines    int
	Patterns map[string]int
	Diags    []diag.Diagnostic
}

// blobSize bounds b's encoded size. Job and Task payloads carry whole
// corpora, so their encoders size the buffer once instead of growing
// it through a series of discarded copies.
func blobSize(b NamedBlob) int {
	return 2*binary.MaxVarintLen64 + len(b.Name) + len(b.Text)
}

// --- Job ---

// EncodeJob serializes a Job payload (frame not included).
func EncodeJob(j *Job) []byte {
	n := 3*binary.MaxVarintLen64 + len(j.Options) + len(j.CacheDir) + len(j.SetJSON)
	for _, m := range j.Meta {
		n += blobSize(m)
	}
	w := &artifact.Writer{Buf: make([]byte, 0, n)}
	w.Bytes(j.Options)
	w.Str(j.CacheDir)
	w.Bytes(j.SetJSON)
	w.Uvarint(uint64(len(j.Meta)))
	for _, m := range j.Meta {
		w.Str(m.Name)
		w.Bytes(m.Text)
	}
	return w.Buf
}

// DecodeJob parses a Job payload, returning an error on any defect.
func DecodeJob(payload []byte) (*Job, error) {
	r := artifact.NewReader(payload)
	j := &Job{}
	j.Options = r.Bytes()
	j.CacheDir = r.Str()
	j.SetJSON = r.Bytes()
	for i, n := 0, r.Count(); i < n && r.Err() == nil; i++ {
		j.Meta = append(j.Meta, NamedBlob{Name: r.Str(), Text: r.Bytes()})
	}
	if err := r.Done(); err != nil {
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
	n := 3 * binary.MaxVarintLen64
	for _, s := range t.Sources {
		n += blobSize(s)
	}
	w := &artifact.Writer{Buf: make([]byte, 0, n)}
	w.Uvarint(uint64(t.Shard))
	w.Uvarint(uint64(t.Attempt))
	w.Uvarint(uint64(len(t.Sources)))
	for _, s := range t.Sources {
		w.Str(s.Name)
		w.Bytes(s.Text)
	}
	return w.Buf
}

// DecodeTask parses a Task payload, returning an error on any defect.
func DecodeTask(payload []byte) (*Task, error) {
	r := artifact.NewReader(payload)
	t := &Task{}
	t.Shard = int(r.Uvarint())
	t.Attempt = int(r.Uvarint())
	for i, n := 0, r.Count(); i < n && r.Err() == nil; i++ {
		t.Sources = append(t.Sources, NamedBlob{Name: r.Str(), Text: r.Bytes()})
	}
	if err := r.Done(); err != nil {
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
	w := &artifact.Writer{}
	w.Uvarint(uint64(res.Shard))
	w.Str(res.Err)
	w.Str(res.Stack)
	w.Bool(res.Lost)
	w.Uvarint(uint64(len(res.Configs)))
	for i := range res.Configs {
		encodeConfigResult(w, &res.Configs[i])
	}
	w.Uvarint(uint64(res.Skipped))
	w.Uvarint(uint64(res.Lines))
	encodePatternCounts(w, res.Patterns)
	// Diagnostics ride as their canonical JSON: diag.Diagnostic already
	// defines a lossless JSON round-trip (Cause flattens to text).
	diags, _ := json.Marshal(res.Diags)
	w.Bytes(diags)
	return w.Buf
}

// encodePatternCounts writes a shard's pattern → parameter-count map
// in sorted key order.
func encodePatternCounts(w *artifact.Writer, patterns map[string]int) {
	pats := sortedMapKeys(patterns)
	w.Uvarint(uint64(len(pats)))
	for _, p := range pats {
		w.Str(p)
		w.Uvarint(uint64(patterns[p]))
	}
}

func decodePatternCounts(r *artifact.Reader) map[string]int {
	n := r.Count()
	if n == 0 || r.Err() != nil {
		return nil
	}
	out := make(map[string]int, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		p := r.Str()
		out[p] = int(r.Uvarint())
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

func encodeConfigResult(w *artifact.Writer, c *ConfigResult) {
	w.Str(c.Name)
	w.Str(c.HashHex)
	w.Bool(c.LexHit)
	w.Bool(c.CheckHit)
	w.Bool(c.HasCoverage)
	w.CheckEntry(&c.Entry)
}

func decodeConfigResult(r *artifact.Reader) ConfigResult {
	return ConfigResult{
		Name:        r.Str(),
		HashHex:     r.Str(),
		LexHit:      r.Bool(),
		CheckHit:    r.Bool(),
		HasCoverage: r.Bool(),
		Entry:       r.CheckEntry(),
	}
}

// DecodeResult parses a Result payload, returning an error on any
// defect — a malformed field never yields a partial result.
func DecodeResult(payload []byte) (*Result, error) {
	r := artifact.NewReader(payload)
	res := &Result{}
	res.Shard = int(r.Uvarint())
	res.Err = r.Str()
	res.Stack = r.Str()
	res.Lost = r.Bool()
	for i, n := 0, r.Count(); i < n && r.Err() == nil; i++ {
		res.Configs = append(res.Configs, decodeConfigResult(r))
	}
	res.Skipped = int(r.Uvarint())
	res.Lines = int(r.Uvarint())
	res.Patterns = decodePatternCounts(r)
	diags := r.Bytes()
	if err := r.Done(); err != nil {
		return nil, err
	}
	if len(diags) > 0 {
		if err := json.Unmarshal(diags, &res.Diags); err != nil {
			return nil, fmt.Errorf("shardrpc: bad diagnostics JSON: %w", err)
		}
	}
	return res, nil
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
