package artifact

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

var frameMagic = [4]byte{'T', 'E', 'S', 'T'}

// TestWriteFrameMatchesEncodeFrame pins that the streaming writer puts
// on the wire exactly the bytes EncodeFrame builds.
func TestWriteFrameMatchesEncodeFrame(t *testing.T) {
	for _, p := range [][]byte{{}, []byte("payload"), bytes.Repeat([]byte{0x5A}, 70000)} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, frameMagic, 3, p); err != nil {
			t.Fatal(err)
		}
		if want := EncodeFrame(frameMagic, 3, p); !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%d-byte payload: WriteFrame wrote %d bytes that differ from EncodeFrame's %d", len(p), buf.Len(), len(want))
		}
	}
}

// TestFrameStreamRoundTrip writes several frames back to back and
// reads them off the same stream; the stream must end with a clean
// io.EOF, never a FrameError.
func TestFrameStreamRoundTrip(t *testing.T) {
	payloads := [][]byte{
		[]byte("first"),
		{}, // empty payload is a valid frame
		bytes.Repeat([]byte{0xAB}, 4096),
	}
	var buf bytes.Buffer
	for _, p := range payloads {
		if err := WriteFrame(&buf, frameMagic, 3, p); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range payloads {
		got, err := ReadFrame(&buf, frameMagic, 3, 1<<20)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame %d: payload %q, want %q", i, got, want)
		}
	}
	if _, err := ReadFrame(&buf, frameMagic, 3, 1<<20); err != io.EOF {
		t.Errorf("drained stream = %v, want io.EOF", err)
	}
}

// TestReadFrameDefects: every defect mid-stream is a *FrameError —
// only a clean boundary before the first header byte is io.EOF.
func TestReadFrameDefects(t *testing.T) {
	frame := EncodeFrame(frameMagic, 3, []byte("payload"))
	cases := map[string][]byte{
		"torn header":     frame[:7],
		"torn payload":    frame[:len(frame)-3],
		"wrong magic":     EncodeFrame([4]byte{'N', 'O', 'P', 'E'}, 3, []byte("payload")),
		"schema skew":     EncodeFrame(frameMagic, 4, []byte("payload")),
		"checksum damage": append(append([]byte(nil), frame[:len(frame)-1]...), frame[len(frame)-1]^0x01),
	}
	for name, data := range cases {
		var fe *FrameError
		if _, err := ReadFrame(bytes.NewReader(data), frameMagic, 3, 1<<20); !errors.As(err, &fe) {
			t.Errorf("%s: err = %v, want *FrameError", name, err)
		}
	}
	if _, err := ReadFrame(bytes.NewReader(frame), frameMagic, 3, 3); err == nil {
		t.Error("oversized payload accepted despite maxPayload")
	}
}
