package workpool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// assertNoLeak waits until the goroutine count is back at the
// baseline taken before the case ran.
func assertNoLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWorkpoolEveryIndexOnce runs every index exactly once, keeps w in
// range, and never runs two items of one worker at the same time.
func TestWorkpoolEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		for _, workers := range []int{0, 1, 2, 8, n + 3} {
			t.Run(fmt.Sprintf("n%d/workers%d", n, workers), func(t *testing.T) {
				before := runtime.NumGoroutine()
				want := min(max(workers, 1), n)
				runs := make([]atomic.Int32, n)
				busy := make([]atomic.Bool, max(want, 1))
				err := Run(context.Background(), workers, n, func(w, i int) error {
					if w < 0 || w >= max(want, 1) {
						t.Errorf("item %d ran on worker %d, want [0, %d)", i, w, want)
						return nil
					}
					if busy[w].Swap(true) {
						t.Errorf("worker %d runs two items at once", w)
					}
					runs[i].Add(1)
					runtime.Gosched()
					busy[w].Store(false)
					return nil
				})
				if err != nil {
					t.Fatalf("Run = %v", err)
				}
				for i := range runs {
					if c := runs[i].Load(); c != 1 {
						t.Errorf("item %d ran %d times, want 1", i, c)
					}
				}
				assertNoLeak(t, before)
			})
		}
	}
}

// TestWorkpoolLowestIndexFailure fails items 3 and 5, forcing 5 to fail
// first; the error returned is still item 3's.
func TestWorkpoolLowestIndexFailure(t *testing.T) {
	before := runtime.NumGoroutine()
	err3, err5 := errors.New("item 3"), errors.New("item 5")
	five := make(chan struct{})
	err := Run(context.Background(), 8, 10, func(_, i int) error {
		switch i {
		case 3:
			<-five
			return err3
		case 5:
			defer close(five)
			return err5
		}
		return nil
	})
	if !errors.Is(err, err3) {
		t.Errorf("Run = %v, want item 3's error", err)
	}
	assertNoLeak(t, before)
}

// TestWorkpoolCancelStopsClaims cancels while every worker is inside
// its item: each worker finishes its item and claims nothing more, and
// Run returns the context's error.
func TestWorkpoolCancelStopsClaims(t *testing.T) {
	before := runtime.NumGoroutine()
	const workers = 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started sync.WaitGroup
	started.Add(workers - 1)
	gate := make(chan struct{})
	var ran atomic.Int32
	err := Run(ctx, workers, 100, func(_, i int) error {
		ran.Add(1)
		switch {
		case i < workers-1:
			started.Done()
			<-gate
		case i == workers-1:
			started.Wait()
			cancel()
			close(gate)
		default:
			t.Errorf("item %d claimed after the cancel", i)
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Run = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != workers {
		t.Errorf("%d items ran, want %d", n, workers)
	}
	assertNoLeak(t, before)
}

// TestWorkpoolFailureStopsClaims fails item 1 while item 0 holds the
// other worker, and releases item 0 only once the failing worker has
// exited: item 0's worker then claims nothing more.
func TestWorkpoolFailureStopsClaims(t *testing.T) {
	before := runtime.NumGoroutine()
	injected := errors.New("item 1")
	holding := make(chan struct{})
	gate := make(chan struct{})
	go func() {
		// Run's caller, the holding worker and this goroutine stay; the
		// failing worker's exit is the event that opens the gate.
		<-holding
		for runtime.NumGoroutine() > before+2 {
			time.Sleep(time.Millisecond)
		}
		close(gate)
	}()
	err := Run(context.Background(), 2, 100, func(_, i int) error {
		switch i {
		case 0:
			close(holding)
			<-gate
			return nil
		case 1:
			<-holding
			return injected
		}
		t.Errorf("item %d claimed after the failure", i)
		return nil
	})
	if !errors.Is(err, injected) {
		t.Errorf("Run = %v, want item 1's error", err)
	}
	assertNoLeak(t, before)
}

// TestWorkpoolPanicReraised re-raises a worker's panic, with its value,
// on the caller's goroutine, at every worker count.
func TestWorkpoolPanicReraised(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			before := runtime.NumGoroutine()
			injected := errors.New("injected panic")
			got := func() (r any) {
				defer func() { r = recover() }()
				Run(context.Background(), workers, 20, func(_, i int) error {
					if i == 7 {
						panic(injected)
					}
					return nil
				})
				return nil
			}()
			if got != injected {
				t.Errorf("recovered %v, want the injected panic", got)
			}
			assertNoLeak(t, before)
		})
	}
}
