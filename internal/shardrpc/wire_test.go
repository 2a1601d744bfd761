package shardrpc

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"concord/internal/artifact"
	"concord/internal/contracts"
	"concord/internal/diag"
)

func testJob() *Job {
	return &Job{
		ContextEmbedding: true,
		Strict:           true,
		Incremental:      true,
		LexCacheSize:     -1, // negative exercises the zig-zag path
		MaxFileSize:      1 << 20,
		MaxLineLen:       4096,
		MaxDepth:         32,
		MaxLines:         100000,
		CacheDir:         "/tmp/concord-cache",
		SetJSON:          []byte(`{"contracts":[]}`),
		Meta:             []NamedBlob{{Name: "meta/site.yaml", Text: []byte("region: emea\n")}},
		UserTokens: []TokenSpec{
			{Name: "esi", Pattern: `[0-9a-f]{4}(\.[0-9a-f]{4}){4}`, WordBoundary: true},
		},
	}
}

func testResult() *Result {
	return &Result{
		Shard: 3,
		Configs: []ConfigResult{
			{
				Name: "r1.cfg",
				Violations: []contracts.Violation{{
					Category: contracts.CatUnique, ContractID: "u1", Contract: "router-id [ip]",
					File: "r1.cfg", Line: 7, Detail: "value 10.0.0.1 duplicates r0.cfg:7",
				}},
				Cov: &Coverage{SourceLines: 40, Covered: 31,
					ByCategory: map[contracts.Category]int{contracts.CatPresent: 20, contracts.CatUnique: 11}},
				CheckHit: true,
				LexHit:   true,
				HashHex:  "aa11",
				Contrib: map[string][]contracts.UniqueSite{
					"u1": {{Key: "10.0.0.1", Display: "10.0.0.1", Line: 7}},
					"u2": nil,
				},
			},
			{
				// A config whose check panicked and was contained: no
				// coverage, no violations, contribution still present.
				Name:    "r2.cfg",
				Contrib: map[string][]contracts.UniqueSite{},
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
	// carried the two differential-baseline flags) must be refused at
	// the frame layer, never decoded field-shifted.
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
