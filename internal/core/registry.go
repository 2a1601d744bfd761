package core

// The engine registry is the compile-once-serve-many core of Concord's
// resident service mode (internal/server, `concord serve`). A one-shot
// CLI run compiles its contract set, checks a corpus, and exits; a
// resident process answering many concurrent requests must instead
// share the expensive per-set state — the compiled check index, the
// string intern table, the lexer memoization cache — across every
// request that names the same contract set, and must bound how many
// such sets it keeps hot. EngineRegistry provides exactly that: a
// concurrency-safe map from contract-set fingerprint to a resident
// RegistryEntry, with per-key singleflight so a thundering herd of
// identical requests compiles exactly once, and an LRU bound so a
// multi-tenant server's memory stays proportional to its working set.

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"concord/internal/artifact"
	"concord/internal/contracts"
	"concord/internal/diag"
	"concord/internal/intern"
	"concord/internal/lexer"
	"concord/internal/telemetry"
)

// ErrNoSources reports that an operation was given zero configuration
// sources: a glob that matched no files (LoadGlob) or a service request
// with an empty corpus. It is distinct from other failures so callers
// — the serve layer in particular — can map it to "bad request" instead
// of silently learning or checking an empty contract set.
var ErrNoSources = errors.New("no configuration sources")

// DefaultRegistryEntries is the default LRU bound of an EngineRegistry:
// how many distinct contract sets stay resident at once.
const DefaultRegistryEntries = 16

// residentState is the per-entry memory a resident engine keeps hot
// across requests: the lexer memoization cache and the string intern
// table. Both are concurrency-safe and append-only (the cache stops
// inserting when full; intern IDs are stable once assigned), so sharing
// them across concurrent requests is safe and results are identical to
// a fresh per-run table — later requests merely start warm.
type residentState struct {
	cache   *lexer.Cache
	interns *intern.Table
}

// RegistryStats is a snapshot of a registry's counters.
type RegistryStats struct {
	// Entries is the number of resident contract sets.
	Entries int `json:"entries"`
	// Compiles counts contract-set compilations; under singleflight a
	// burst of concurrent requests for one new set compiles once.
	Compiles int64 `json:"compiles"`
	// Evictions counts entries dropped by the LRU bound.
	Evictions int64 `json:"evictions"`
	// Hits and Misses count Acquire calls that found (resp. did not
	// find) their fingerprint resident.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Pinned is the number of resident entries currently pinned against
	// LRU eviction (the serving default set, unexpired learn-job
	// results).
	Pinned int `json:"pinned"`
}

// EngineRegistry is a concurrency-safe registry of resident engines
// keyed by contract-set fingerprint. All entries share one base Options
// template (the server's engine configuration); each entry owns a
// resident engine (shared lexer cache and intern table) plus the
// compiled checker for its contract set. Entries are bounded by an LRU:
// acquiring a new fingerprint beyond the bound evicts the least
// recently used entry. Eviction only drops the registry's reference —
// an in-flight request holding the evicted entry keeps using its
// compiled state and completes correctly.
type EngineRegistry struct {
	base Options
	// template validates the base options once and supplies the
	// processing fingerprint folded into every registry key.
	template *Engine
	max      int

	mu      sync.Mutex
	entries map[artifact.Key]*RegistryEntry
	lru     *list.List // of *RegistryEntry, front = most recently used

	compiles  atomic.Int64
	evictions atomic.Int64
	hits      atomic.Int64
	misses    atomic.Int64
}

// NewEngineRegistry builds a registry whose entries all use the given
// engine options (per-request sinks — Telemetry, Diagnostics, Progress
// — are replaced per request and may be left nil). maxEntries bounds
// the number of resident contract sets; 0 selects
// DefaultRegistryEntries.
func NewEngineRegistry(opts Options, maxEntries int) (*EngineRegistry, error) {
	if maxEntries < 0 {
		return nil, fmt.Errorf("core: registry size must be non-negative (got %d)", maxEntries)
	}
	if maxEntries == 0 {
		maxEntries = DefaultRegistryEntries
	}
	tmpl, err := New(opts)
	if err != nil {
		return nil, err
	}
	return &EngineRegistry{
		base:     tmpl.opts, // defaults filled by New
		template: tmpl,
		max:      maxEntries,
		entries:  make(map[artifact.Key]*RegistryEntry),
		lru:      list.New(),
	}, nil
}

// Fingerprint computes the registry key of a contract set under this
// registry's engine options: a content address over the set's canonical
// JSON plus every option that changes processing or checking output
// (the same inputs the artifact cache's check keys hash). Two sets with
// equal fingerprints produce byte-identical check results, so sharing
// one compiled entry between them is always sound.
func (r *EngineRegistry) Fingerprint(set *contracts.Set) (string, error) {
	k, err := r.fingerprint(set)
	if err != nil {
		return "", err
	}
	return k.Hex(), nil
}

func (r *EngineRegistry) fingerprint(set *contracts.Set) (artifact.Key, error) {
	h, err := r.template.checkInputsHasher("concord/registry/v1", set)
	if err != nil {
		return artifact.Key{}, fmt.Errorf("core: fingerprinting contract set: %w", err)
	}
	return h.Bool(r.template.opts.Strict).Sum(), nil
}

// Acquire returns the resident entry for the contract set, compiling it
// on first use. Concurrent acquisitions of one not-yet-resident
// fingerprint are singleflighted: exactly one caller compiles, the
// rest block (respecting ctx) until the compile finishes and then share
// the result. The returned entry stays valid for the caller's lifetime
// even if the LRU later evicts it from the registry.
func (r *EngineRegistry) Acquire(ctx context.Context, set *contracts.Set) (*RegistryEntry, error) {
	key, err := r.fingerprint(set)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if en, ok := r.entries[key]; ok {
		r.lru.MoveToFront(en.elem)
		r.hits.Add(1)
		r.mu.Unlock()
		return en.wait(ctx)
	}
	r.misses.Add(1)
	en := &RegistryEntry{reg: r, key: key, set: set, ready: make(chan struct{})}
	en.elem = r.lru.PushFront(en)
	r.entries[key] = en
	r.evictLocked()
	r.mu.Unlock()
	en.compile(r)
	return en.wait(ctx)
}

// AcquireByFingerprint returns the resident entry with the given hex
// fingerprint, or ErrUnknownFingerprint if no such set is resident. It
// lets service clients that registered a set once (via Acquire or a
// learn job) reference it by fingerprint instead of resending it.
func (r *EngineRegistry) AcquireByFingerprint(ctx context.Context, fingerprint string) (*RegistryEntry, error) {
	var key artifact.Key
	if err := key.ParseHex(fingerprint); err != nil {
		return nil, fmt.Errorf("core: %w: %v", ErrUnknownFingerprint, err)
	}
	r.mu.Lock()
	en, ok := r.entries[key]
	if ok {
		r.lru.MoveToFront(en.elem)
		r.hits.Add(1)
	}
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: %w: %s", ErrUnknownFingerprint, fingerprint)
	}
	return en.wait(ctx)
}

// ErrUnknownFingerprint reports an AcquireByFingerprint for a contract
// set that is not resident (never registered, or evicted by the LRU).
var ErrUnknownFingerprint = errors.New("unknown contract-set fingerprint")

// evictLocked enforces the LRU bound, skipping pinned entries. When
// every entry is pinned the registry is allowed to exceed its bound —
// dropping a pinned entry (the serving default, an unexpired job
// result) would break fingerprint addressability, which is worse than
// a transiently larger working set. Callers hold r.mu.
func (r *EngineRegistry) evictLocked() {
	for r.lru.Len() > r.max {
		var victim *list.Element
		for e := r.lru.Back(); e != nil; e = e.Prev() {
			if e.Value.(*RegistryEntry).pins.Load() == 0 {
				victim = e
				break
			}
		}
		if victim == nil {
			return
		}
		en := victim.Value.(*RegistryEntry)
		r.lru.Remove(victim)
		delete(r.entries, en.key)
		r.evictions.Add(1)
	}
}

// Pin marks the entry immune to LRU eviction until a matching Unpin.
// Pins nest. If the entry was already evicted, pinning re-inserts it so
// its fingerprint stays addressable — unless a newer entry for the same
// fingerprint exists, in which case the entry merely stays usable by
// its holders (the newer entry owns the key).
func (r *EngineRegistry) Pin(en *RegistryEntry) {
	if en == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	en.pins.Add(1)
	if _, ok := r.entries[en.key]; !ok {
		en.elem = r.lru.PushFront(en)
		r.entries[en.key] = en
		r.evictLocked()
	}
}

// Unpin releases one Pin; at zero pins the entry becomes evictable
// again. Unpinning below zero is a bug and panics.
func (r *EngineRegistry) Unpin(en *RegistryEntry) {
	if en == nil {
		return
	}
	if en.pins.Add(-1) < 0 {
		panic("core: registry entry unpinned more times than pinned")
	}
	r.mu.Lock()
	r.evictLocked()
	r.mu.Unlock()
}

// Stats snapshots the registry's counters.
func (r *EngineRegistry) Stats() RegistryStats {
	r.mu.Lock()
	n := r.lru.Len()
	pinned := 0
	for e := r.lru.Front(); e != nil; e = e.Next() {
		if e.Value.(*RegistryEntry).pins.Load() > 0 {
			pinned++
		}
	}
	r.mu.Unlock()
	return RegistryStats{
		Entries:   n,
		Pinned:    pinned,
		Compiles:  r.compiles.Load(),
		Evictions: r.evictions.Load(),
		Hits:      r.hits.Load(),
		Misses:    r.misses.Load(),
	}
}

// Len returns the number of resident entries.
func (r *EngineRegistry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lru.Len()
}

// remove drops an entry from the registry (used when its compile
// failed, so a later Acquire can retry cleanly).
func (r *EngineRegistry) remove(en *RegistryEntry) {
	r.mu.Lock()
	if cur, ok := r.entries[en.key]; ok && cur == en {
		delete(r.entries, en.key)
		r.lru.Remove(en.elem)
	}
	r.mu.Unlock()
}

// RegistryEntry is one resident contract set: a fingerprint, the set,
// an engine carrying the entry's resident lexer cache and intern table,
// and the checker compiled once against that table. Entries are safe
// for concurrent use; per-request state (telemetry, diagnostics,
// cancellation) is supplied per call.
type RegistryEntry struct {
	reg  *EngineRegistry
	key  artifact.Key
	set  *contracts.Set
	elem *list.Element

	// pins counts Pin calls minus Unpin calls; a pinned entry is never
	// LRU-evicted (see EngineRegistry.Pin).
	pins atomic.Int64

	// ready is closed when compilation finishes; err is set before the
	// close and never written afterwards.
	ready chan struct{}
	err   error

	eng     *Engine
	checker *contracts.Checker
}

// compile builds the entry's resident engine and compiled checker.
// Exactly one goroutine (the Acquire that inserted the entry) runs it;
// waiters block on ready. A compile failure (or panic) records the
// error and removes the entry so the fingerprint can be retried.
func (en *RegistryEntry) compile(r *EngineRegistry) {
	defer close(en.ready)
	defer func() {
		if rec := recover(); rec != nil {
			en.err = fmt.Errorf("core: compiling contract set %s panicked: %v", en.key.Hex()[:12], rec)
			r.remove(en)
		}
	}()
	eng, err := New(r.base)
	if err != nil {
		en.err = err
		r.remove(en)
		return
	}
	res := &residentState{interns: intern.NewTable()}
	if r.base.LexCacheSize >= 0 {
		res.cache = lexer.NewCache(r.base.LexCacheSize)
	}
	eng.resident = res
	en.eng = eng
	en.checker = contracts.NewChecker(en.set,
		contracts.WithTransforms(eng.transforms),
		contracts.WithRelations(eng.opts.ExtraRelations),
		contracts.WithStrict(eng.opts.Strict),
		contracts.WithInterns(res.interns))
	r.compiles.Add(1)
}

// wait blocks until the entry is compiled (or ctx is cancelled) and
// returns it, or the compile error.
func (en *RegistryEntry) wait(ctx context.Context) (*RegistryEntry, error) {
	// Check cancellation first: select picks randomly among ready
	// channels, and a caller with a dead context should never observe
	// success.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case <-en.ready:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if en.err != nil {
		return nil, en.err
	}
	return en, nil
}

// Fingerprint returns the entry's hex contract-set fingerprint.
func (en *RegistryEntry) Fingerprint() string { return en.key.Hex() }

// Set returns the entry's contract set. Treat it as immutable: it is
// shared by the compiled checker.
func (en *RegistryEntry) Set() *contracts.Set { return en.set }

// CheckContext evaluates the entry's contract set against the sources
// using the shared compiled checker and resident caches. rec, when
// non-nil, receives this request's stage spans and counters (pass a
// fresh recorder per request for request-scoped telemetry; nil disables
// it). Diagnostics are request-scoped and returned in the result.
func (en *RegistryEntry) CheckContext(ctx context.Context, sources, meta []Source, rec *telemetry.Recorder) (*CheckResult, error) {
	e := en.eng.forRequest(rec)
	dc := diag.New()
	defer en.eng.opts.Diagnostics.Merge(dc)
	cfgs, arts, pstats, err := e.processContext(ctx, dc, sources, meta)
	if err != nil {
		return nil, err
	}
	res, err := e.checkProcessedContext(ctx, dc, en.set, cfgs, pstats, arts, en.checker.ForRequest(rec, dc))
	if err != nil {
		return nil, err
	}
	res.Diagnostics = dc.All()
	return res, nil
}

// CheckShardedContext is CheckContext routed through the fleet-scale
// sharded driver (see shard.go): the corpus is partitioned into
// deterministic contiguous shards streamed on a bounded pool, with
// results byte-identical to CheckContext. backend selects the shard
// execution backend (Options.ShardBackend); with the process backend,
// each shard runs in a worker child process and a single shard still
// routes through the sharded driver. shards <= 1 otherwise falls back
// to the unsharded path; shardWorkers <= 0 selects the engine's
// Parallelism. The entry's compiled checker and resident caches are
// shared either way.
func (en *RegistryEntry) CheckShardedContext(ctx context.Context, sources, meta []Source, rec *telemetry.Recorder, shards, shardWorkers int, backend string) (*CheckResult, error) {
	if shards <= 1 && backend != ShardBackendProcess {
		return en.CheckContext(ctx, sources, meta, rec)
	}
	if shards < 1 {
		shards = 1
	}
	e := en.eng.forRequest(rec)
	e.opts.Shards, e.opts.ShardWorkers, e.opts.ShardBackend = shards, shardWorkers, backend
	dc := diag.New()
	defer en.eng.opts.Diagnostics.Merge(dc)
	res, err := e.checkShardedContext(ctx, dc, en.set, sources, meta, en.checker.ForRequest(rec, dc))
	if err != nil {
		return nil, err
	}
	res.Diagnostics = dc.All()
	return res, nil
}

// CoverageLinesContext computes per-line coverage for the sources under
// the entry's contract set, sharing the compiled checker; see
// Engine.CoverageLinesContext.
func (en *RegistryEntry) CoverageLinesContext(ctx context.Context, sources, meta []Source, rec *telemetry.Recorder) ([]LineCoverage, error) {
	e := en.eng.forRequest(rec)
	dc := diag.New()
	defer en.eng.opts.Diagnostics.Merge(dc)
	cfgs, _, _, err := e.processContext(ctx, dc, sources, meta)
	if err != nil {
		return nil, err
	}
	return e.coverageLinesWith(ctx, dc, en.checker.ForRequest(rec, dc), cfgs)
}

// forRequest returns a shallow engine that shares the receiver's
// compiled lexer, transform registry, fingerprints, and resident state,
// but routes telemetry to a request-scoped recorder and detaches the
// aggregate diagnostics and progress sinks (request paths thread their
// own collectors). It exists so a resident server can give every
// request its own spans without recompiling anything.
func (e *Engine) forRequest(rec *telemetry.Recorder) *Engine {
	e2 := &Engine{
		opts:       e.opts,
		lx:         e.lx,
		transforms: e.transforms,
		procFP:     e.procFP,
		resident:   e.resident,
	}
	e2.opts.Telemetry = rec
	e2.opts.Diagnostics = nil
	e2.opts.Progress = nil
	return e2
}
