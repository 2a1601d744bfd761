// Command perfbench is Concord's repository benchmark. It drives one seeded
// workload through the engine's public API (internal/core,
// internal/server), times each operation end to end with tracing off,
// checks every output against pinned digests and engine-independent
// oracles, and prints one JSON result line. With --trace 1 it instead
// runs the workload with the benchmark's own spans around calls into
// each layer and reports per-layer metrics.
//
// Run it through run.sh from the repository root, which builds this
// package first:
//
//	bash perfbench/run.sh --workload learn --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and their meaning.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"concord"
)

// defaultSeed is the seed the pinned digests (digests.json) belong to;
// heldOutSeed is the seed kept out of tuning, for confirming a claim.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// setupReps is how many times a run performs its set-up; setup_s is the
// median.
const setupReps = 5

// runner is one set-up workload instance.
type runner interface {
	// warmup runs untimed operations until caches are filled and lazy
	// set-up (worker exec, resident compile) is done, fixing the
	// expected outputs every later operation is compared against.
	warmup() error
	// measure runs timed operations with tracing off for d and returns
	// each operation's latency and the wall time they took.
	measure(d time.Duration) (lat []time.Duration, elapsed time.Duration)
	// peakOp runs one untimed operation for the heap measurement (for
	// a server, a second of requests).
	peakOp() error
	// oracle runs the untimed correctness oracles and fills the
	// quality metrics (planted_detected, learn_precision, oracle.*).
	oracle(m metrics) error
	// trace runs the traced measurement for d and fills the per-layer
	// metrics.
	trace(d time.Duration, tr *tracer, m metrics) error
	// tally returns the operations attempted and failed so far.
	tally() *tally
	close()
}

type workload struct {
	name  string
	setup func(seed int64) (runner, error)
}

var workloads = []workload{
	{"learn", setupLearn},
	{"check-fleet", func(seed int64) (runner, error) { return setupCheck(seed, false) }},
	{"serve-check", setupServe},
	{"check-dist", func(seed int64) (runner, error) { return setupCheck(seed, true) }},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// endToEnd and perLayer list every metric a run reports, with its unit:
// the end-to-end ones with --trace 0, the per-layer ones with --trace 1.
// A per-layer metric a workload does not exercise reads 0.
var endToEnd = []string{"setup_s", "op_p50_ms", "ops_per_s", "peak_heap_mb", "planted_detected", "learn_precision"}

var perLayer = []struct{ name, unit string }{
	{"format.busy_s", "s"}, {"format.lines", "count"},
	{"lexer.cache_hit_ratio", "frac"},
	{"mining.busy_s", "s"}, {"mining.relation_candidates", "count"}, {"mining.relation_accept_ratio", "frac"},
	{"minimize.busy_s", "s"}, {"minimize.reduction", "ratio"},
	{"contracts.compile_s", "s"}, {"contracts.check_busy_s", "s"}, {"contracts.coverage_busy_s", "s"},
	{"contracts.unique_s", "s"}, {"contracts.index_skip_ratio", "frac"},
	{"core.process_s", "s"}, {"core.learn_processed_s", "s"}, {"core.check_processed_s", "s"},
	{"core.process_self_s", "s"}, {"core.check_self_s", "s"}, {"core.unattributed_s", "s"},
	{"core.registry_hit_ratio", "frac"}, {"core.registry_compiles", "count"},
	{"server.overhead_ms", "ms"}, {"server.p99_ms", "ms"}, {"server.samples", "count"},
	{"server.response_bytes", "bytes"}, {"server.transport_ms", "ms"},
	{"shardrpc.dispatch_overhead_s", "s"}, {"shardrpc.worker_spawns", "count"},
	{"shardrpc.dispatch_useful_ratio", "frac"}, {"shardrpc.worker_cpu_s", "s"}, {"shardrpc.worker_peak_rss_mb", "MB"},
	{"telemetry.overhead_frac", "frac"},
	{"trace.total_ratio", "ratio"}, {"trace.overhead_frac", "frac"}, {"trace.spans_per_op", "count"},
	{"oracle.drop-line.planted", "count"}, {"oracle.drop-line.detected", "count"},
	{"oracle.swap-adjacent.planted", "count"}, {"oracle.swap-adjacent.detected", "count"},
	{"oracle.retype.planted", "count"}, {"oracle.retype.detected", "count"},
	{"oracle.perturb-value.planted", "count"}, {"oracle.perturb-value.detected", "count"},
	{"oracle.line_exact", "count"}, {"failed_frac", "frac"},
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	// The process shard backend re-execs this binary as its worker.
	if len(os.Args) > 1 && os.Args[1] == "shard-worker" {
		if err := concord.RunShardWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "shard-worker:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload: learn, check-fleet, serve-check, check-dist")
	seed := flag.Int64("seed", defaultSeed, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	traceOn := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	traceDir := flag.String("trace-dir", ".bench_build/perfbench", "directory the span file is written to")
	pin := flag.Bool("pin", false, "print the run's digests as digests.json content instead of checking them")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *traceOn == 1, *traceDir, *pin); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, d time.Duration, traceOn bool, traceDir string, pin bool) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	pinning = pin
	host := map[string]any{"workload": name, "seed": seed, "default_seed": defaultSeed, "held_out_seed": heldOutSeed,
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(), "trace": traceOn}
	hostLine, _ := json.Marshal(host)
	fmt.Println(string(hostLine))

	setups := make([]float64, 0, setupReps)
	var r runner
	for i := 0; i < setupReps; i++ {
		if r != nil {
			r.close()
			runtime.GC()
		}
		start := time.Now()
		var err error
		if r, err = w.setup(seed); err != nil {
			return fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer r.close()
	if err := r.warmup(); err != nil {
		return fmt.Errorf("%s warm-up: %w", name, err)
	}

	m := metrics{}
	var ran error
	if traceOn {
		tr := newTracer()
		ran = r.trace(d, tr, m)
		if err := tr.write(traceDir, name, seed); err != nil {
			return err
		}
	} else {
		lat, elapsed := r.measure(d)
		heap, err := peakLiveHeap(r.peakOp)
		if err != nil {
			ran = err
		}
		m.set("setup_s", median(setups), "s")
		m.set("op_p50_ms", ms(percentile(lat, 50)), "ms")
		m.set("ops_per_s", float64(len(lat))/elapsed.Seconds(), "1/s")
		m.set("peak_heap_mb", heap/(1<<20), "MB")
	}
	oerr := r.oracle(m)
	if pin {
		return printPins()
	}
	t := r.tally()
	res := result{Correct: ran == nil && oerr == nil && t.failed.Load() == 0,
		Attempted: int(t.attempted.Load()), Failed: int(t.failed.Load()), Metrics: metrics{}}
	m.set("failed_frac", float64(res.Failed)/float64(max(res.Attempted, 1)), "frac")
	if traceOn {
		for _, k := range perLayer {
			v, ok := m[k.name]
			if !ok {
				v = metric{0, k.unit}
			}
			res.Metrics[k.name] = v
		}
	} else {
		for _, k := range endToEnd {
			v, ok := m[k]
			if !ok {
				res.Correct = false
				ran = errors.Join(ran, fmt.Errorf("metric %s was not measured", k))
			}
			res.Metrics[k] = v
		}
	}
	if res.Attempted == 0 {
		res.Attempted, res.Failed, res.Correct = 1, 1, false
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.Join(errors.New("correctness gate failed"), ran, oerr)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile returns the p-th percentile of ds by nearest rank.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if p == 50 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(p/100*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
