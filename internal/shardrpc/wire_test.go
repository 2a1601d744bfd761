package shardrpc

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"concord/internal/artifact"
	"concord/internal/contracts"
	"concord/internal/diag"
)

func testJob() *Job {
	return &Job{
		Options:  []byte(`{"Proc":{"ContextEmbedding":true},"Strict":true,"LexCacheSize":-1}`),
		CacheDir: "/tmp/concord-cache",
		SetJSON:  []byte(`{"contracts":[]}`),
		Meta:     []NamedBlob{{Name: "meta/site.yaml", Text: []byte("region: emea\n")}},
	}
}

func testResult() *Result {
	return &Result{
		Shard: 3,
		Configs: []ConfigResult{
			{
				Name:        "r1.cfg",
				HashHex:     "aa11",
				LexHit:      true,
				CheckHit:    true,
				HasCoverage: true,
				Entry: artifact.CheckEntry{
					Violations: []contracts.Violation{{
						Category: contracts.CatUnique, ContractID: "u1", Contract: "router-id [ip]",
						File: "r1.cfg", Line: 7, Detail: "value 10.0.0.1 duplicates r0.cfg:7",
					}},
					SourceLines: 40,
					Covered:     31,
					ByCategory:  map[contracts.Category]int{contracts.CatPresent: 20, contracts.CatUnique: 11},
					Unique: map[string][]contracts.UniqueSite{
						"u1": {{Key: "10.0.0.1", Display: "10.0.0.1", Line: 7}},
						"u2": {},
					},
				},
			},
			{
				// A config whose check panicked and was contained: no
				// coverage, no violations, its recovered unique sites
				// still present.
				Name: "r2.cfg",
				Entry: artifact.CheckEntry{
					ByCategory: map[contracts.Category]int{},
					Unique: map[string][]contracts.UniqueSite{
						"u1": {{Key: "10.0.0.2", Display: "10.0.0.2", Line: 3}},
					},
				},
			},
		},
		Skipped:  2,
		Lines:    81,
		Patterns: map[string]int{"router-id [ip]": 1, "vlan [num]": 2},
		Diags: []diag.Diagnostic{{
			Severity: diag.SevError, Stage: "check", Source: "r2.cfg",
			Message: "recovered panic", Cause: errors.New("boom"), Stack: "stack...",
		}},
	}
}

// TestWireRoundTrip pushes each frame kind through Write and Read and
// requires the decoded value to match field for field (Cause flattens
// to its error text, per the diag JSON contract).
func TestWireRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	job := testJob()
	task := &Task{Shard: 2, Attempt: 1, Sources: []NamedBlob{
		{Name: "a.cfg", Text: []byte("hostname a\n")},
		{Name: "b.cfg", Text: nil},
	}}
	res := testResult()
	if err := WriteJob(&buf, job); err != nil {
		t.Fatal(err)
	}
	if err := WriteTask(&buf, task); err != nil {
		t.Fatal(err)
	}
	if err := WriteResult(&buf, res); err != nil {
		t.Fatal(err)
	}

	gotJob, err := ReadJob(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotJob, job) {
		t.Errorf("job round-trip diverged:\n got %+v\nwant %+v", gotJob, job)
	}
	gotTask, err := ReadTask(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// A nil source text decodes as empty, which is equivalent on the
	// processing side.
	if gotTask.Shard != task.Shard || gotTask.Attempt != task.Attempt || len(gotTask.Sources) != 2 ||
		gotTask.Sources[0].Name != "a.cfg" || string(gotTask.Sources[0].Text) != "hostname a\n" ||
		gotTask.Sources[1].Name != "b.cfg" || len(gotTask.Sources[1].Text) != 0 {
		t.Errorf("task round-trip diverged: %+v", gotTask)
	}
	gotRes, err := ReadResult(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res.Diags[0].Cause = errors.New("boom") // decoded cause is a fresh opaque error
	if gotRes.Diags[0].Cause == nil || gotRes.Diags[0].Cause.Error() != "boom" {
		t.Errorf("diagnostic cause lost: %+v", gotRes.Diags[0])
	}
	gotRes.Diags[0].Cause, res.Diags[0].Cause = nil, nil
	if !reflect.DeepEqual(gotRes, res) {
		t.Errorf("result round-trip diverged:\n got %+v\nwant %+v", gotRes, res)
	}
	if _, err := ReadResult(&buf); err != io.EOF {
		t.Errorf("drained stream = %v, want io.EOF", err)
	}
}

// failedResults are the two payload-free Result shapes: a shard whose
// worker contained a whole-shard panic (Lost, with its diagnostic) and
// a strict in-band abort (Err, with the panic's stack).
func failedResults() []*Result {
	return []*Result{
		{Shard: 1, Lost: true, Diags: []diag.Diagnostic{{Severity: diag.SevError, Stage: "check", Source: "shard 1", Message: "recovered panic"}}},
		{Shard: 4, Err: "core: check stage aborted (strict): boom", Stack: "stack..."},
	}
}

// TestWireFailedResultRoundTrip: a lost shard and an in-band error
// round-trip field for field and carry no configuration outcomes, so
// the parent maps them onto shard loss and strict abort, never onto
// an empty shard.
func TestWireFailedResultRoundTrip(t *testing.T) {
	for _, res := range failedResults() {
		var buf bytes.Buffer
		if err := WriteResult(&buf, res); err != nil {
			t.Fatal(err)
		}
		got, err := ReadResult(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, res) {
			t.Errorf("failed-shard round-trip diverged:\n got %+v\nwant %+v", got, res)
		}
	}
}

// implausibleLineResult is a check Result whose one violation sits on
// a line no configuration can have; it encodes, but must not decode.
func implausibleLineResult() *Result {
	res := &Result{Configs: []ConfigResult{{Name: "r1.cfg", HasCoverage: true}}}
	res.Configs[0].Entry.Violations = []contracts.Violation{{
		Category: contracts.CatPresent, ContractID: "p1", File: "r1.cfg", Line: math.MaxInt32 + 1,
	}}
	return res
}

// TestWireRejectsImplausibleLine requires the wire to inherit the
// check-artifact decoder's bounds: a violation line above
// math.MaxInt32 is a decode error, not a value.
func TestWireRejectsImplausibleLine(t *testing.T) {
	res, err := DecodeResult(EncodeResult(implausibleLineResult()))
	if err == nil || !strings.Contains(err.Error(), "implausible violation line") {
		t.Fatalf("DecodeResult = %+v, %v; want an implausible-line error", res, err)
	}
}

// TestWireDeterministicEncoding requires EncodeResult to be a pure
// function of the value, map iteration order notwithstanding.
func TestWireDeterministicEncoding(t *testing.T) {
	a := EncodeResult(testResult())
	for i := 0; i < 16; i++ {
		if b := EncodeResult(testResult()); !bytes.Equal(a, b) {
			t.Fatal("EncodeResult is not deterministic across runs")
		}
	}
}

// TestReadFrameDefects exercises the streaming frame reader's failure
// modes: version skew, wrong magic, truncation, oversized length, and
// checksum damage must all surface as errors, never as payload.
func TestReadFrameDefects(t *testing.T) {
	payload := EncodeTask(&Task{Shard: 1})
	frame := artifact.EncodeFrame(TaskMagic, SchemaVersion, payload)
	for name, data := range map[string][]byte{
		"version skew": artifact.EncodeFrame(TaskMagic, SchemaVersion+1, payload),
		"wrong magic":  artifact.EncodeFrame(ResultMagic, SchemaVersion, payload),
		"mid-header":   frame[:10],
		"mid-payload":  frame[:len(frame)-1],
	} {
		if _, err := ReadTask(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: ReadTask accepted a defective frame", name)
		} else if err == io.EOF {
			t.Errorf("%s: defect reported as clean EOF", name)
		}
	}
	// A Job framed under the previous schema (whose layout still
	// carried the engine option fields) must be refused at the frame
	// layer, never decoded field-shifted.
	if _, err := ReadJob(bytes.NewReader(artifact.EncodeFrame(JobMagic, SchemaVersion-1, EncodeJob(testJob())))); err == nil {
		t.Error("ReadJob accepted a Job frame carrying the previous schema version")
	}
	flipped := append([]byte(nil), frame...)
	flipped[len(flipped)-1] ^= 0x40
	var fe *artifact.FrameError
	if _, err := ReadTask(bytes.NewReader(flipped)); !errors.As(err, &fe) {
		t.Errorf("bit flip: err = %v, want *artifact.FrameError", err)
	}
	if _, err := artifact.ReadFrame(bytes.NewReader(frame), TaskMagic, SchemaVersion, 1); !errors.As(err, &fe) {
		t.Errorf("payload over limit: err = %v, want *artifact.FrameError", err)
	}
	if _, err := ReadTask(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty stream = %v, want io.EOF", err)
	}
}

// TestEncodeAllocatesOnce pins that the Job and Task encoders size
// their buffer up front: a payload carrying a whole corpus is one
// allocation, not a series of grown and discarded copies.
func TestEncodeAllocatesOnce(t *testing.T) {
	task := &Task{Shard: 1}
	job := testJob()
	for i := 0; i < 200; i++ {
		blob := NamedBlob{Name: strings.Repeat("n", i), Text: bytes.Repeat([]byte("interface et-0/0/1\n"), i)}
		task.Sources = append(task.Sources, blob)
		job.Meta = append(job.Meta, blob)
	}
	if n := testing.AllocsPerRun(10, func() { EncodeTask(task) }); n != 1 {
		t.Errorf("EncodeTask made %v allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(10, func() { EncodeJob(job) }); n != 1 {
		t.Errorf("EncodeJob made %v allocations, want 1", n)
	}
}
