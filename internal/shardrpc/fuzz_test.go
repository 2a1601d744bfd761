package shardrpc

import (
	"bytes"
	"io"
	"testing"

	"concord/internal/artifact"
)

// frameSeeds frames a payload under magic and returns the valid frame
// followed by its five defective variants: cut mid-payload, cut
// mid-header, version-skewed, bit-flipped mid-frame, and with a
// damaged header byte.
func frameSeeds(magic [4]byte, payload []byte) [][]byte {
	valid := artifact.EncodeFrame(magic, SchemaVersion, payload)
	flip := append([]byte(nil), valid...)
	flip[len(flip)/2] ^= 0x40
	head := append([]byte(nil), valid...)
	head[5] ^= 0x01
	return [][]byte{
		valid, valid[:len(valid)/2], valid[:10],
		artifact.EncodeFrame(magic, SchemaVersion+7, payload),
		flip, head,
	}
}

// FuzzShardFrame feeds arbitrary bytes to the framed Job, Task, and
// Result readers and the raw payload decoders, seeded with every
// message kind: a Job, a Task, a check Result (one of its configs a
// contained check panic without coverage), a check Result whose
// violation line exceeds math.MaxInt32, and a lost shard's Result
// carrying only its diagnostic. The contract mirrors FuzzBundleManifest:
// truncated, bit-flipped, or version-skewed frames must decode to an
// error — never a panic, and never a partial value.
func FuzzShardFrame(f *testing.F) {
	task := EncodeTask(&Task{Shard: 2, Attempt: 1, Sources: []NamedBlob{
		{Name: "r0.cfg", Text: []byte("hostname r0\nrouter-id 10.0.0.1\n")},
	}})
	payloads := [][]byte{task, EncodeResult(testResult()), EncodeResult(implausibleLineResult()),
		EncodeResult(failedResults()[0]), EncodeJob(testJob())}
	for _, payload := range payloads {
		for _, magic := range [][4]byte{TaskMagic, ResultMagic, JobMagic} {
			for _, seed := range frameSeeds(magic, payload) {
				f.Add(seed)
			}
		}
		f.Add(payload) // bare payload without a frame header
	}
	f.Add([]byte{})
	f.Add([]byte("CCST garbage that is not a frame"))
	f.Add([]byte("CCSR garbage that is not a frame"))
	f.Fuzz(fuzzFrameDecoders)
}

// fuzzFrameDecoders is the shared fuzz body: every framed reader and
// raw decoder must answer a value or an error, never a panic or a nil
// value without an error, and a non-empty defective stream is never a
// clean EOF.
func fuzzFrameDecoders(t *testing.T, data []byte) {
	if job, err := ReadJob(bytes.NewReader(data)); err == nil {
		if job == nil {
			t.Fatal("ReadJob: nil job without error")
		}
	} else if err == io.EOF && len(data) > 0 {
		t.Fatal("ReadJob: io.EOF on a non-empty defective stream")
	}
	if task, err := ReadTask(bytes.NewReader(data)); err == nil {
		if task == nil {
			t.Fatal("ReadTask: nil task without error")
		}
	} else if err == io.EOF && len(data) > 0 {
		t.Fatal("ReadTask: io.EOF on a non-empty defective stream")
	}
	if res, err := ReadResult(bytes.NewReader(data)); err == nil {
		if res == nil {
			t.Fatal("ReadResult: nil result without error")
		}
	} else if err == io.EOF && len(data) > 0 {
		t.Fatal("ReadResult: io.EOF on a non-empty defective stream")
	}
	// The raw decoders guard the same boundary one layer down.
	if task, err := DecodeTask(data); err == nil && task == nil {
		t.Fatal("DecodeTask: nil task without error")
	}
	if res, err := DecodeResult(data); err == nil && res == nil {
		t.Fatal("DecodeResult: nil result without error")
	}
	if job, err := DecodeJob(data); err == nil && job == nil {
		t.Fatal("DecodeJob: nil job without error")
	}
}
