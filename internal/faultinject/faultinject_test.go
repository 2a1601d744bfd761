package faultinject

import (
	"sync"
	"testing"
)

func TestAtWithoutHooksIsNoop(t *testing.T) {
	Reset()
	At("core.process.source", "r1.cfg") // must not panic or block
}

func TestSetFiresOnlyAtPoint(t *testing.T) {
	defer Reset()
	var calls []string
	Set("p.a", func(key string) { calls = append(calls, "a:"+key) })
	At("p.a", "k1")
	At("p.b", "k2") // no hook registered here
	if len(calls) != 1 || calls[0] != "a:k1" {
		t.Errorf("calls = %v", calls)
	}
}

func TestSetNilRemoves(t *testing.T) {
	defer Reset()
	fired := false
	Set("p", func(string) { fired = true })
	Set("p", nil)
	At("p", "k")
	if fired {
		t.Error("removed hook fired")
	}
	if active.Load() != 0 {
		t.Errorf("active = %d after removal", active.Load())
	}
	// Removing an absent point must not underflow the active counter.
	Set("absent", nil)
	if active.Load() != 0 {
		t.Errorf("active = %d after removing absent point", active.Load())
	}
}

func TestResetClearsEverything(t *testing.T) {
	Set("p1", func(string) { t.Error("fired after Reset") })
	Set("p2", func(string) { t.Error("fired after Reset") })
	Reset()
	At("p1", "k")
	At("p2", "k")
}

func TestPanicOnTargetsKeys(t *testing.T) {
	defer Reset()
	Set("p", PanicOn("boom", "bad1", "bad2"))
	At("p", "good") // no panic
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("recover = %v, want boom", r)
		}
	}()
	At("p", "bad2")
}

func TestConcurrentAt(t *testing.T) {
	defer Reset()
	var mu sync.Mutex
	n := 0
	Set("p", func(string) { mu.Lock(); n++; mu.Unlock() })
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				At("p", "k")
			}
		}()
	}
	wg.Wait()
	if n != 800 {
		t.Errorf("hook fired %d times, want 800", n)
	}
}

func TestArmedTracksRegisteredHooks(t *testing.T) {
	defer Reset()
	Reset()
	if Armed() {
		t.Fatal("Armed with no hooks")
	}
	Set("p", func(string) {})
	if !Armed() {
		t.Fatal("not Armed with a hook set")
	}
	Set("p", nil)
	if Armed() {
		t.Fatal("Armed after the only hook was removed")
	}
}
