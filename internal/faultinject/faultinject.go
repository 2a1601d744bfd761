// Package faultinject is a test-only hook registry for chaos testing
// the pipeline's fault containment. Production code marks named
// injection points with At; tests register hooks with Set that panic,
// return injected errors (by panicking with an error value, which
// containment preserves as the diagnostic's cause), or delay. With no
// hooks registered — the only state production ever runs in — At is a
// single atomic load.
//
// Points are named "package.stage.unit", e.g. "core.process.source".
// The key passed to At identifies the unit instance (a source name, a
// configuration name, a contract ID), so hooks can target specific
// inputs deterministically. Where building the key costs more than the
// load (a contract ID is formatted), the caller guards the call with
// Armed, which is also one atomic load, so production never builds it.
// The checker's one site per contract per configuration, which check
// and coverage share, reads:
//
//	if faultinject.Armed() {
//		faultinject.At("contracts.check.contract", c.ID())
//	}
package faultinject

import (
	"sync"
	"sync/atomic"
)

var (
	mu     sync.RWMutex
	active atomic.Int32
	hooks  map[string]func(key string)
)

// Set registers fn at a named injection point, replacing any previous
// hook there; a nil fn removes the point's hook. Hooks may be invoked
// concurrently from pipeline workers and must be safe for concurrent
// use. Tests should pair Set with a deferred Reset.
func Set(point string, fn func(key string)) {
	mu.Lock()
	defer mu.Unlock()
	if fn == nil {
		if hooks != nil {
			if _, ok := hooks[point]; ok {
				delete(hooks, point)
				active.Add(-1)
			}
		}
		return
	}
	if hooks == nil {
		hooks = make(map[string]func(key string))
	}
	if _, ok := hooks[point]; !ok {
		active.Add(1)
	}
	hooks[point] = fn
}

// Reset removes every registered hook.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	hooks = nil
	active.Store(0)
}

// Armed reports whether any hook is registered. It is one atomic load;
// callers use it to skip building an expensive key for At.
func Armed() bool { return active.Load() != 0 }

// At invokes the hook registered at point, if any, with the unit key.
// The fast path (no hooks registered anywhere) is one atomic load.
func At(point, key string) {
	if !Armed() {
		return
	}
	mu.RLock()
	fn := hooks[point]
	mu.RUnlock()
	if fn != nil {
		fn(key)
	}
}

// PanicOn returns a hook that panics with value v when invoked with any
// of the listed keys, a convenience for chaos tests targeting specific
// sources.
func PanicOn(v any, keys ...string) func(key string) {
	targets := make(map[string]bool, len(keys))
	for _, k := range keys {
		targets[k] = true
	}
	return func(key string) {
		if targets[key] {
			panic(v)
		}
	}
}
