// Package artifact implements Concord's content-addressed on-disk
// cache for warm runs. It persists two artifact kinds: lexed
// configurations (the expensive format-inference + lexing output of
// one source file, in a compact binary encoding) and per-configuration
// check results (violations, coverage counts, and unique-contract
// value multisets). Artifacts are addressed purely by content: the key
// of a lex artifact hashes the raw config bytes together with a
// fingerprint of every option that affects processing, and the key of
// a check artifact additionally folds in a fingerprint of the contract
// set and the metadata corpus. A cache hit therefore never needs a
// freshness check, and any input or option change misses naturally.
//
// Every entry is versioned and checksummed. A corrupt, truncated, or
// version-mismatched entry is reported as a *CorruptError so callers
// can fall back to the cold path with a diagnostic — the cache can
// degrade a run's speed, never its results.
package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// SchemaVersion is the on-disk encoding version. Entries written under
// a different version live in a different directory namespace and are
// simply never read; a tampered version field inside an entry is
// caught by the header check and reported as corruption.
const SchemaVersion = 1

// Key is a 256-bit content-address: the hash of an artifact's inputs.
type Key [sha256.Size]byte

// Hex renders the key as lowercase hexadecimal.
func (k Key) Hex() string { return hex.EncodeToString(k[:]) }

// ParseHex sets the key from its Hex rendering; the string must be
// exactly 64 hexadecimal digits.
func (k *Key) ParseHex(s string) error {
	b, err := hex.DecodeString(s)
	if err != nil {
		return fmt.Errorf("artifact: bad key %q: %w", s, err)
	}
	if len(b) != len(k) {
		return fmt.Errorf("artifact: bad key %q: want %d hex digits, got %d", s, 2*len(k), len(s))
	}
	copy(k[:], b)
	return nil
}

// IsZero reports whether the key is the zero value (no key computed).
func (k Key) IsZero() bool { return k == Key{} }

// Kind names an artifact class; each kind has its own directory.
type Kind string

// The artifact kinds.
const (
	// KindLex holds binary-encoded lexer.Config artifacts.
	KindLex Kind = "lex"
	// KindCheck holds per-configuration check-result artifacts.
	KindCheck Kind = "check"
)

// Hasher accumulates length-prefixed fields into a key, so that
// adjacent fields can never alias ("ab","c" vs "a","bc") and distinct
// domains can never collide.
type Hasher struct {
	h   [32]byte
	buf []byte
}

// NewHasher starts a hasher whose first field is the domain label.
func NewHasher(domain string) *Hasher {
	h := &Hasher{}
	h.Str(domain)
	return h
}

// Bytes appends one length-prefixed byte field.
func (h *Hasher) Bytes(b []byte) *Hasher {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
	h.buf = append(h.buf, n[:]...)
	h.buf = append(h.buf, b...)
	return h
}

// Str appends one length-prefixed string field.
func (h *Hasher) Str(s string) *Hasher { return h.Bytes([]byte(s)) }

// Int appends one integer field.
func (h *Hasher) Int(i int) *Hasher {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(i))
	return h.Bytes(n[:])
}

// Bool appends one boolean field.
func (h *Hasher) Bool(b bool) *Hasher {
	if b {
		return h.Bytes([]byte{1})
	}
	return h.Bytes([]byte{0})
}

// Key appends a previously computed key as a field.
func (h *Hasher) Key(k Key) *Hasher { return h.Bytes(k[:]) }

// Sum returns the accumulated key.
func (h *Hasher) Sum() Key { return sha256.Sum256(h.buf) }

// HashBytes hashes one byte slice under a domain label.
func HashBytes(domain string, b []byte) Key {
	return NewHasher(domain).Bytes(b).Sum()
}

// ErrMiss reports that no entry exists for a key. It is the only Load
// error that does not indicate a damaged cache.
var ErrMiss = errors.New("artifact: cache miss")

// CorruptError reports a cache entry that exists but cannot be
// trusted: wrong magic, mismatched schema version, truncated payload,
// or checksum failure. Callers should fall back to the cold path and
// record a diagnostic; a subsequent Store overwrites the bad entry.
type CorruptError struct {
	Path   string
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("artifact: corrupt cache entry %s: %s", e.Path, e.Reason)
}

// entry header: magic, schema version, payload length, FNV-1a payload
// checksum (see frame.go). Fixed-width little-endian so corruption
// detection never depends on parsing variable-length fields.
var magic = [4]byte{'C', 'C', 'A', 'F'}

const headerSize = 4 + 4 + 8 + 8

// Cache is a content-addressed artifact store rooted at one directory.
// It is safe for concurrent use: entries are written to a temporary
// file and renamed into place, and same-key writers race benignly
// (identical content either way).
type Cache struct {
	base string // dir as passed to Open
	root string // dir/v<SchemaVersion>
}

// Open creates (if needed) and returns the cache rooted at dir.
// Entries are namespaced under a schema-version subdirectory, so a
// future encoding change starts from an empty namespace instead of
// misreading old entries.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, errors.New("artifact: empty cache directory")
	}
	root := filepath.Join(dir, fmt.Sprintf("v%d", SchemaVersion))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	return &Cache{base: dir, root: root}, nil
}

// Dir returns the version-namespaced root directory of the cache.
func (c *Cache) Dir() string { return c.root }

// BaseDir returns the directory the cache was opened at — the value a
// second Open (e.g. in a shard-worker process) needs to share this
// cache's namespace.
func (c *Cache) BaseDir() string { return c.base }

// path shards entries by the first key byte to keep directories small.
func (c *Cache) path(kind Kind, key Key) string {
	h := key.Hex()
	return filepath.Join(c.root, string(kind), h[:2], h)
}

// Load returns the payload stored under (kind, key). A missing entry
// returns ErrMiss; an unreadable or invalid one returns *CorruptError.
func (c *Cache) Load(kind Kind, key Key) ([]byte, error) {
	p := c.path(kind, key)
	data, err := os.ReadFile(p)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrMiss
		}
		return nil, &CorruptError{Path: p, Reason: err.Error()}
	}
	payload, err := DecodeFrame(magic, SchemaVersion, data)
	if err != nil {
		var fe *FrameError
		if errors.As(err, &fe) {
			return nil, &CorruptError{Path: p, Reason: fe.Reason}
		}
		return nil, &CorruptError{Path: p, Reason: err.Error()}
	}
	return payload, nil
}

// Store writes payload under (kind, key), atomically replacing any
// existing entry.
func (c *Cache) Store(kind Kind, key Key, payload []byte) error {
	p := c.path(kind, key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	return writeAtomic(p, EncodeFrame(magic, SchemaVersion, payload))
}

// writeAtomic replaces the file at p with data: it writes a temporary
// file in p's directory and renames it over p, so a concurrent reader
// sees the old content or the new, never a partial write. It does not
// fsync: the cache is rebuildable, and a lost write is a miss.
func writeAtomic(p string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(p), ".tmp-*")
	if err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: %w", err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: %w", err)
	}
	return nil
}

// ManifestEntry records one configuration's cache interaction in the
// last incremental run.
type ManifestEntry struct {
	// Name is the configuration's source name.
	Name string `json:"name"`
	// ContentHash is the hex content hash of the raw source bytes.
	ContentHash string `json:"content_hash"`
	// LexHit and CheckHit report which artifact kinds were replayed.
	LexHit   bool `json:"lex_hit"`
	CheckHit bool `json:"check_hit"`
}

// Manifest summarizes the most recent incremental run against this
// cache. It is informational: lookups are content-addressed, so
// correctness never depends on the manifest — it exists so operators
// and tools can see what the warm run reused and why.
type Manifest struct {
	Schema     int             `json:"schema"`
	OptionsFP  string          `json:"options_fp"`
	ContractFP string          `json:"contract_fp"`
	Configs    []ManifestEntry `json:"configs"`
}

// WriteManifest atomically replaces the cache's run manifest.
func (c *Cache) WriteManifest(m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	return writeAtomic(filepath.Join(c.root, "manifest.json"), data)
}

// ReadManifest returns the manifest of the last incremental run, or
// ErrMiss when none has been written.
func (c *Cache) ReadManifest() (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(c.root, "manifest.json"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrMiss
		}
		return nil, fmt.Errorf("artifact: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	return &m, nil
}
