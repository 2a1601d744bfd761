package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// tally counts checked operations: every engine call whose output the
// benchmark verifies is one attempt; an error, a non-2xx response, or a
// wrong output is one failure.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	first             error
}

// record counts one attempt and returns err, remembering the first
// failure for the run's error message.
func (t *tally) record(err error) error {
	t.attempted.Add(1)
	if err != nil {
		t.failed.Add(1)
		t.mu.Lock()
		if t.first == nil {
			t.first = err
			fmt.Fprintln(os.Stderr, "perfbench: operation failed:", err)
		}
		t.mu.Unlock()
	}
	return err
}

// loop calls op until d has elapsed (at least minOps times) and returns
// each call's latency and the total wall time.
func loop(d time.Duration, minOps int, op func() error) ([]time.Duration, time.Duration) {
	var lat []time.Duration
	start := time.Now()
	for len(lat) < minOps || time.Since(start) < d {
		t := time.Now()
		_ = op() // failures are counted by op's tally
		lat = append(lat, time.Since(t))
	}
	return lat, time.Since(start)
}

// minBatchOps is the fewest timed operations a batch workload makes in
// one run, whatever --seconds says.
const minBatchOps = 3

// peakGCPercent is the collector setting of the heap measurement: a
// collection every 10% of heap growth, so the live heap each one marks
// follows the true peak closely.
const peakGCPercent = 10

// peakLiveHeap runs op with frequent collections and returns the largest
// live heap a collection marked, polled from runtime/metrics, which does
// not stop the world. Under the default setting the collector runs too
// rarely for a run-wide maximum to be more than a sample of where it
// happened to run.
func peakLiveHeap(op func() error) (float64, error) {
	old := debug.SetGCPercent(peakGCPercent)
	defer debug.SetGCPercent(old)
	runtime.GC()
	stop, done := make(chan struct{}), make(chan struct{})
	sample := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var peak uint64
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			rtmetrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			select {
			case <-tick.C:
			case <-stop:
				return
			}
		}
	}()
	err := op()
	runtime.GC() // marks whatever op still holds
	close(stop)
	<-done
	return float64(peak), err
}

// digest is the SHA-256 of v's JSON encoding.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

//go:embed digests.json
var pinnedJSON []byte

var (
	pinMu    sync.Mutex
	observed = map[string]string{}
	// pinning skips the comparison: the run prints new pins instead.
	pinning bool
)

// checkPin records the digest under key and, on the default seed,
// compares it with the pinned one.
func checkPin(seed int64, key, got string) error {
	pinMu.Lock()
	observed[key] = got
	pinMu.Unlock()
	if seed != defaultSeed || pinning {
		return nil
	}
	var pinned map[string]string
	if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	want, ok := pinned[key]
	if !ok {
		return fmt.Errorf("no pinned digest for %s", key)
	}
	if want != got {
		return fmt.Errorf("%s digest %s differs from the pinned %s", key, got[:12], want[:12])
	}
	return nil
}

// printPins prints the digests observed in this run in digests.json
// form, merged over the pinned ones.
func printPins() error {
	pinned := map[string]string{}
	if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
		return err
	}
	for k, v := range observed {
		pinned[k] = v
	}
	b, err := json.MarshalIndent(pinned, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
