// Package intern provides a concurrency-safe string interning table
// mapping strings to dense integer IDs. One Table is created per engine
// run (per processed corpus, not globally): untyped patterns and
// context-embedded pattern paths repeat massively across network
// configurations, so downstream consumers — the mining statistics pass,
// the relational miner's candidate keys, the check compiler's anchor
// table — can key their hot maps and index their hot arrays by small
// integers instead of re-hashing full pattern strings per line.
//
// IDs are assigned starting at 1, so the zero value of an ID field
// unambiguously means "not interned" (hand-constructed lines carry no
// IDs).
//
// ID assignment order depends on goroutine scheduling when a Table is
// populated from parallel workers; consumers must therefore never let
// ID numbering leak into output ordering. Every miner sorts its emitted
// contracts by string contract ID, which keeps learned sets
// byte-identical across runs regardless of interning order.
package intern

import (
	"fmt"
	"sync"
)

// nShards is the shard count of the forward (string -> ID) map; a
// power of two so shard selection is a mask.
const nShards = 64

// Table interns strings to dense IDs (1..Len). Safe for concurrent use.
type Table struct {
	shards [nShards]shard

	// mu guards strs, the reverse mapping. strs[0] is a placeholder so
	// that String(id) indexes directly.
	mu   sync.RWMutex
	strs []string
}

type shard struct {
	mu sync.RWMutex
	m  map[string]int32
}

// NewTable returns an empty table.
func NewTable() *Table {
	t := &Table{strs: make([]string, 1, 1024)}
	for i := range t.shards {
		t.shards[i].m = make(map[string]int32)
	}
	return t
}

// fnv1a is a 64-bit FNV-1a hash, inlined to keep shard selection
// allocation-free.
func fnv1a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// ID returns the dense ID of s, assigning the next free ID on first
// use. IDs start at 1.
func (t *Table) ID(s string) int32 {
	sh := &t.shards[fnv1a(s)&(nShards-1)]
	sh.mu.RLock()
	id, ok := sh.m[s]
	sh.mu.RUnlock()
	if ok {
		return id
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if id, ok := sh.m[s]; ok {
		return id
	}
	t.mu.Lock()
	id = int32(len(t.strs))
	t.strs = append(t.strs, s)
	t.mu.Unlock()
	sh.m[s] = id
	return id
}

// Lookup returns the ID of s without interning it; ok is false when s
// has never been interned.
func (t *Table) Lookup(s string) (int32, bool) {
	sh := &t.shards[fnv1a(s)&(nShards-1)]
	sh.mu.RLock()
	id, ok := sh.m[s]
	sh.mu.RUnlock()
	return id, ok
}

// String returns the string with the given ID. It panics on IDs never
// returned by this table (including 0), exactly like an out-of-range
// slice index.
func (t *Table) String(id int32) string {
	t.mu.RLock()
	s := t.strs[id]
	t.mu.RUnlock()
	return s
}

// Len returns the number of interned strings.
func (t *Table) Len() int {
	t.mu.RLock()
	n := len(t.strs) - 1
	t.mu.RUnlock()
	return n
}

// Translator maps the dense IDs of a foreign Table — received across a
// process boundary as its ordered string slice, foreign ID i naming
// foreign[i-1] — onto a local Table. Worker processes intern into
// private tables whose ID assignment never matches the parent's, so
// serialized mining state carries its string table and the parent
// rebinds every ID on import. Foreign IDs are untrusted wire data:
// out-of-range IDs return errors, never panics, so a corrupted frame
// cannot take down the parent. Local IDs are memoized per foreign ID;
// a Translator is not safe for concurrent use.
type Translator struct {
	local   *Table
	foreign []string
	ids     []int32 // memoized local IDs, 0 = not yet translated
}

// NewTranslator builds a translator from the foreign table's ordered
// strings onto local.
func NewTranslator(local *Table, foreign []string) *Translator {
	return &Translator{local: local, foreign: foreign, ids: make([]int32, len(foreign))}
}

// String returns the foreign string with the given foreign ID.
func (tr *Translator) String(id int32) (string, error) {
	if id < 1 || int(id) > len(tr.foreign) {
		return "", fmt.Errorf("intern: foreign ID %d out of range (table has %d strings)", id, len(tr.foreign))
	}
	return tr.foreign[id-1], nil
}

// ID translates a foreign ID to the local table's ID for the same
// string, interning it locally on first use.
func (tr *Translator) ID(id int32) (int32, error) {
	if id < 1 || int(id) > len(tr.foreign) {
		return 0, fmt.Errorf("intern: foreign ID %d out of range (table has %d strings)", id, len(tr.foreign))
	}
	if lid := tr.ids[id-1]; lid != 0 {
		return lid, nil
	}
	lid := tr.local.ID(tr.foreign[id-1])
	tr.ids[id-1] = lid
	return lid, nil
}
