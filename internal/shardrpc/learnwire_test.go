package shardrpc

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"concord/internal/artifact"
	"concord/internal/diag"
	"concord/internal/mining"
)

func testLearnJob() *Job {
	job := testJob()
	job.Learn = true
	job.SetJSON = nil
	return job
}

// testLearnResult is a learn job's Result: State instead of Configs.
func testLearnResult() *Result {
	return &Result{
		Shard: 2,
		State: &mining.AccumulatorState{
			NConfigs: 3,
			Strings:  []string{"/router bgp [num]", "/router bgp *", "/vlan [num]", "65000", "num", "suffix", "eq"},
			Patterns: []mining.AccPattern{
				{Pattern: 1, Display: 2, ConfigCount: 3, LineCount: 3},
				{Pattern: 3, Display: 3, ConfigCount: 2, LineCount: 4},
			},
			Pairs:     []mining.AccPair{{First: 1, Second: 3, DisplayFirst: 2, DisplaySecond: 3, HoldConfigs: 2}},
			FirstOccs: []mining.AccFirstOcc{{Pattern: 1, Configs: 3}},
			Types: []mining.AccType{{Agnostic: 2, Total: 3, Params: []mining.AccTypeParam{
				{Uses: []mining.AccTypeUse{{Type: 5, Lines: 3}}},
				{}, // a parameter position with no observed uses
			}}},
			Seqs:      []mining.AccSeq{{Pattern: 3, Idx: 0, Display: 3, ConfigsWith2: 2, ConfigsSeq: 1}},
			Uniqs:     []mining.AccUniq{{Pattern: 1, Idx: 0, Display: 2, TotalValues: 3, Values: []mining.AccValueCount{{Key: 4, Count: 3}}}},
			Constants: []mining.AccConstant{{Text: 4, ConfigCount: 3}},
			Cands: []mining.AccCand{{
				P1: 1, I1: 0, T1: 6, Rel: 7, P2: 3, I2: 0, T2: 6,
				Display1: 2, Display2: 3, HoldConfigs: 2,
				Scores: []mining.AccScore{{Key: 4, Score: 3.5}},
			}},
		},
		Skipped:  1,
		Lines:    42,
		Patterns: map[string]int{"/router bgp [num]": 1, "/vlan [num]": 1},
		Diags: []diag.Diagnostic{{
			Severity: diag.SevError, Stage: "mine", Source: "r2.cfg",
			Message: "recovered panic", Cause: errors.New("boom"), Stack: "stack...",
		}},
	}
}

// TestLearnWireRoundTrip pushes a learn Job and a learn Result through
// Write and Read and requires the decoded values to match field for
// field — the exported accumulator state included.
func TestLearnWireRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	job := testLearnJob()
	res := testLearnResult()
	if err := WriteJob(&buf, job); err != nil {
		t.Fatal(err)
	}
	if err := WriteResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	gotJob, err := ReadJob(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// A learn job's absent SetJSON decodes as empty, which is equivalent.
	if len(gotJob.SetJSON) == 0 {
		gotJob.SetJSON = nil
	}
	if !reflect.DeepEqual(gotJob, job) {
		t.Errorf("learn job round-trip diverged:\n got %+v\nwant %+v", gotJob, job)
	}
	gotRes, err := ReadResult(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotRes.Diags[0].Cause == nil || gotRes.Diags[0].Cause.Error() != "boom" {
		t.Errorf("diagnostic cause lost: %+v", gotRes.Diags[0])
	}
	gotRes.Diags[0].Cause, res.Diags[0].Cause = nil, nil
	if !reflect.DeepEqual(gotRes, res) {
		t.Errorf("learn result round-trip diverged:\n got %+v\nwant %+v", gotRes, res)
	}
	if _, err := ReadResult(&buf); err != io.EOF {
		t.Errorf("drained stream = %v, want io.EOF", err)
	}
}

// TestLearnResultLostRoundTrip covers the stateless shapes: a lost
// shard and an in-band error carry no accumulator state, and State
// must decode as nil (which the parent treats as shard loss), never as
// a zero-valued accumulator.
func TestLearnResultLostRoundTrip(t *testing.T) {
	for _, res := range []*Result{
		{Shard: 1, Lost: true, Diags: []diag.Diagnostic{{Severity: diag.SevError, Stage: "mine", Source: "shard 1", Message: "recovered panic"}}},
		{Shard: 4, Err: "core: mine stage aborted (strict): boom", Stack: "stack..."},
	} {
		var buf bytes.Buffer
		if err := WriteResult(&buf, res); err != nil {
			t.Fatal(err)
		}
		got, err := ReadResult(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.State != nil {
			t.Errorf("stateless result decoded with State = %+v, want nil", got.State)
		}
		if got.Shard != res.Shard || got.Err != res.Err || got.Lost != res.Lost {
			t.Errorf("stateless round-trip diverged: got %+v, want %+v", got, res)
		}
	}
}

// TestLearnWireDeterministicEncoding requires EncodeResult to be a
// pure function of a learn Result too, map iteration order
// notwithstanding.
func TestLearnWireDeterministicEncoding(t *testing.T) {
	a := EncodeResult(testLearnResult())
	for i := 0; i < 16; i++ {
		if b := EncodeResult(testLearnResult()); !bytes.Equal(a, b) {
			t.Fatal("EncodeResult is not deterministic across runs")
		}
	}
}

// FuzzLearnFrame is FuzzShardFrame's decoder contract over learn-shaped
// Result frames — the ones carrying an exported accumulator state —
// and is the fuzz gate of the sharded learning suite.
func FuzzLearnFrame(f *testing.F) {
	payload := EncodeResult(testLearnResult())
	for _, seed := range frameSeeds(ResultMagic, payload)[:3] {
		f.Add(seed)
	}
	f.Add(artifact.EncodeFrame(ResultMagic, SchemaVersion+7, payload))
	f.Add(artifact.EncodeFrame(TaskMagic, SchemaVersion, payload))
	for _, seed := range frameSeeds(ResultMagic, payload)[4:] {
		f.Add(seed)
	}
	f.Add(payload) // bare payload without a frame header
	f.Add([]byte{})
	f.Add([]byte("CCSR garbage that is not a frame"))
	f.Fuzz(fuzzFrameDecoders)
}
