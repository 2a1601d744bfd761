// Package workpool is the engine's one worker pool. Every parallel loop
// in the engine — the source stream, the miner's fold and its category
// fan-out, the process-backend shard slots and the glob loader — runs on
// Run, so which item runs next, when the loop stops and which failure it
// reports are decided here once.
package workpool

import (
	"context"
	"sync"
	"sync/atomic"
)

// Run calls fn(w, i) once for each claimed index i in [0, n) and returns
// when every call has returned.
//
// Items are claimed in increasing index order from one atomic counter by
// min(max(workers, 1), n) workers; with at most one worker Run works
// inline on the caller's goroutine, otherwise each worker is its own
// goroutine. w is the claiming worker's index, distinct per worker, and
// a worker runs its items one after another, so fn may keep per-worker
// state in a slice indexed by w without a lock.
//
// A worker stops claiming once ctx is done or any call has failed by
// returning an error or panicking; calls already running finish, and
// every claimed item runs. Run reports the failure of the lowest index.
// Claims follow index order, so every index below a failing one was
// claimed before it and ran, which makes the result deterministic when
// fn is. A panic is re-raised with its original value on the caller's
// goroutine after every worker has returned; an error is returned as
// is. When no call failed, Run returns ctx.Err().
func Run(ctx context.Context, workers, n int, fn func(w, i int) error) error {
	workers = min(max(workers, 1), n)
	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		first  = failure{i: n}
	)
	work := func(w int) {
		for !failed.Load() && ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if f := call(fn, w, i); f != nil {
				mu.Lock()
				if f.i < first.i {
					first = *f
				}
				mu.Unlock()
				failed.Store(true)
			}
		}
	}
	if workers <= 1 {
		work(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := range workers {
			go func() {
				defer wg.Done()
				work(w)
			}()
		}
		wg.Wait()
	}
	switch {
	case first.i == n:
		return ctx.Err()
	case first.panicked:
		panic(first.value)
	default:
		return first.err
	}
}

// failure is one failed call: its index and its error or panic value.
type failure struct {
	i        int
	err      error
	panicked bool
	value    any
}

// call runs fn(w, i), turning a returned error or a panic into a
// failure.
func call(fn func(w, i int) error, w, i int) (f *failure) {
	defer func() {
		if r := recover(); r != nil {
			f = &failure{i: i, panicked: true, value: r}
		}
	}()
	if err := fn(w, i); err != nil {
		return &failure{i: i, err: err}
	}
	return nil
}
