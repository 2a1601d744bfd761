package artifact

// The frame is the artifact cache's on-disk corruption barrier: a
// fixed-width header — magic, schema version, payload length, FNV-1a
// payload checksum — in front of every entry, so truncation, torn
// writes, bit flips, and version skew are all caught before a byte of
// payload is parsed. The bundle store (internal/bundle) shares the same
// discipline under its own magic values, which is why the encoder and
// decoder are exported here rather than private to the cache.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
)

// FrameError reports a frame that cannot be trusted: wrong magic,
// mismatched schema version, truncated payload, or checksum failure.
// Callers wanting path context should wrap it (the cache wraps it into
// *CorruptError).
type FrameError struct {
	Reason string
}

func (e *FrameError) Error() string { return "invalid frame: " + e.Reason }

// EncodeFrame prefixes payload with the corruption-detection header
// under the given magic and schema version.
func EncodeFrame(magic [4]byte, schema uint32, payload []byte) []byte {
	buf := make([]byte, headerSize+len(payload))
	putHeader(buf, magic, schema, payload)
	copy(buf[headerSize:], payload)
	return buf
}

// putHeader writes payload's frame header into buf[:headerSize].
func putHeader(buf []byte, magic [4]byte, schema uint32, payload []byte) {
	copy(buf, magic[:])
	binary.LittleEndian.PutUint32(buf[4:8], schema)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint64(buf[16:24], checksum(payload))
}

// DecodeFrame validates data's header against the expected magic and
// schema version and returns the payload, or a *FrameError describing
// why the frame cannot be trusted.
func DecodeFrame(magic [4]byte, schema uint32, data []byte) ([]byte, error) {
	if len(data) < headerSize {
		return nil, &FrameError{Reason: fmt.Sprintf("truncated header (%d bytes)", len(data))}
	}
	if [4]byte(data[:4]) != magic {
		return nil, &FrameError{Reason: "bad magic"}
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != schema {
		return nil, &FrameError{Reason: fmt.Sprintf("schema version %d, want %d", v, schema)}
	}
	n := binary.LittleEndian.Uint64(data[8:16])
	payload := data[headerSize:]
	if uint64(len(payload)) != n {
		return nil, &FrameError{Reason: fmt.Sprintf("payload length %d, header says %d", len(payload), n)}
	}
	if sum := binary.LittleEndian.Uint64(data[16:24]); sum != checksum(payload) {
		return nil, &FrameError{Reason: "checksum mismatch"}
	}
	return payload, nil
}

// WriteFrame writes one framed payload to w. It is the streaming
// counterpart of EncodeFrame, used where frames travel over a pipe or
// socket instead of sitting whole in a file (the shard-worker wire
// protocol in internal/shardrpc). The header and the payload go out
// as two writes, so a frame of any size costs no copy of its payload.
func WriteFrame(w io.Writer, magic [4]byte, schema uint32, payload []byte) error {
	header := make([]byte, headerSize)
	putHeader(header, magic, schema, payload)
	if _, err := w.Write(header); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads and validates exactly one frame from r. A clean EOF
// before any header byte is returned as io.EOF so stream consumers can
// distinguish an orderly close from truncation; every other defect —
// torn header, wrong magic, schema skew, oversized or truncated
// payload, checksum failure — is a *FrameError. maxPayload bounds the
// allocation a hostile or corrupt length field can demand.
func ReadFrame(r io.Reader, magic [4]byte, schema uint32, maxPayload uint64) ([]byte, error) {
	header := make([]byte, headerSize)
	if n, err := io.ReadFull(r, header); err != nil {
		if n == 0 && err == io.EOF {
			return nil, io.EOF
		}
		return nil, &FrameError{Reason: fmt.Sprintf("truncated header (%d bytes): %v", n, err)}
	}
	if [4]byte(header[:4]) != magic {
		return nil, &FrameError{Reason: "bad magic"}
	}
	if v := binary.LittleEndian.Uint32(header[4:8]); v != schema {
		return nil, &FrameError{Reason: fmt.Sprintf("schema version %d, want %d", v, schema)}
	}
	n := binary.LittleEndian.Uint64(header[8:16])
	if n > maxPayload {
		return nil, &FrameError{Reason: fmt.Sprintf("payload length %d exceeds limit %d", n, maxPayload)}
	}
	payload := make([]byte, n)
	if m, err := io.ReadFull(r, payload); err != nil {
		return nil, &FrameError{Reason: fmt.Sprintf("truncated payload (%d of %d bytes): %v", m, n, err)}
	}
	if sum := binary.LittleEndian.Uint64(header[16:24]); sum != checksum(payload) {
		return nil, &FrameError{Reason: "checksum mismatch"}
	}
	return payload, nil
}

func checksum(payload []byte) uint64 {
	h := fnv.New64a()
	h.Write(payload)
	return h.Sum64()
}
