package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"syscall"
	"time"

	"concord/internal/contracts"
	"concord/internal/core"
	"concord/internal/telemetry"
)

// checkSplits are the fleet tiers checked by check-fleet and check-dist:
// F1 (flat WAN) and F2 (indented edge with shared metadata). Each tier's
// contract set is learned from its training devices during set-up; one
// in three checked devices carries a planted mutation.
var checkSplits = []roleSplit{
	{role: "F1", scale: 0.08, train: 150, test: 600, plants: 200},
	{role: "F2", scale: 0.08, train: 150, test: 600, plants: 200},
}

// The check-dist sharding: four shards on two worker processes.
const (
	distShards  = 4
	distWorkers = 2
)

type checkRunner struct {
	seed    int64
	dist    bool
	corpora []*corpus
	sets    []*contracts.Set
	prec    precision
	plain   *core.Engine // unsharded engine with default options
	eng     *core.Engine // the engine the workload times
	want    []string     // report digest per corpus
	reports []*core.CheckResult
	t       tally
}

// distOptions returns the check-dist engine options for backend.
func distOptions(backend string) (core.Options, error) {
	opts := core.DefaultOptions()
	opts.Shards, opts.ShardWorkers, opts.ShardBackend = distShards, distWorkers, backend
	if backend == core.ShardBackendProcess {
		exe, err := os.Executable()
		if err != nil {
			return opts, err
		}
		opts.ShardWorkerCommand = []string{exe, "shard-worker"}
	}
	return opts, nil
}

func setupCheck(seed int64, dist bool) (runner, error) {
	rng := rand.New(rand.NewSource(seed))
	r := &checkRunner{seed: seed, dist: dist}
	plain, err := core.New(core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	r.plain, r.eng = plain, plain
	if dist {
		opts, err := distOptions(core.ShardBackendProcess)
		if err != nil {
			return nil, err
		}
		if r.eng, err = core.New(opts); err != nil {
			return nil, err
		}
	}
	for _, sp := range checkSplits {
		c, err := makeCorpus(rng, sp)
		if err != nil {
			return nil, err
		}
		res, err := plain.Learn(c.train, c.meta)
		if err != nil {
			return nil, fmt.Errorf("learning %s: %w", c.role, err)
		}
		r.corpora = append(r.corpora, c)
		r.sets = append(r.sets, res.Set)
		r.prec.add(c.truth, res.Set)
	}
	return r, nil
}

func (r *checkRunner) tally() *tally { return &r.t }
func (r *checkRunner) close()        {}

// same compares a check report with the expected digest of corpus i.
func (r *checkRunner) same(i int, res *core.CheckResult) error {
	got, err := digest(checkReport{res.Violations, res.Coverage})
	if err != nil {
		return err
	}
	if got != r.want[i] {
		return fmt.Errorf("%s report digest %s, want %s", r.corpora[i].role, got[:12], r.want[i][:12])
	}
	return nil
}

// checkAll checks every tier with eng and verifies each report.
func (r *checkRunner) checkAll(eng *core.Engine) error {
	for i, c := range r.corpora {
		res, err := eng.Check(r.sets[i], c.test, c.meta)
		if err == nil {
			err = r.same(i, res)
		}
		if r.t.record(err) != nil {
			return err
		}
	}
	return nil
}

// warmup pins the learned sets and the unsharded reports, then (for
// check-dist) runs the timed engine once, which must reproduce the
// unsharded reports byte for byte.
func (r *checkRunner) warmup() error {
	for i, c := range r.corpora {
		d, err := digest(r.sets[i])
		if err == nil {
			err = checkPin(r.seed, "check/"+c.role+"/learned", d)
		}
		if r.t.record(err) != nil {
			return err
		}
		res, err := r.plain.Check(r.sets[i], c.test, c.meta)
		if r.t.record(err) != nil {
			return err
		}
		if d, err = digest(checkReport{res.Violations, res.Coverage}); err != nil {
			return err
		}
		if err := r.t.record(checkPin(r.seed, "check/"+c.role+"/report", d)); err != nil {
			return err
		}
		r.want = append(r.want, d)
		r.reports = append(r.reports, res)
	}
	return r.checkAll(r.eng)
}

func (r *checkRunner) measure(d time.Duration) ([]time.Duration, time.Duration) {
	return loop(d, minBatchOps, r.peakOp)
}

func (r *checkRunner) peakOp() error { return r.checkAll(r.eng) }

// oracle compares every tier's report with a check of its unplanted
// twin corpus.
func (r *checkRunner) oracle(m metrics) error {
	var det detection
	for i, c := range r.corpora {
		clean, err := r.plain.Check(r.sets[i], c.clean, c.meta)
		if r.t.record(err) != nil {
			return err
		}
		det.add(c.plants, r.reports[i].Violations, clean.Violations)
	}
	m.set("learn_precision", r.prec.value(), "frac")
	det.report(m)
	return nil
}

func (r *checkRunner) trace(d time.Duration, tr *tracer, m metrics) error {
	if r.dist {
		return r.traceDist(d, tr, m)
	}
	return r.traceFleet(d, tr, m)
}

// traceFleet runs the untraced engine, the layer-composed check under
// spans, the staged engine API under spans, and the engine with a
// telemetry recorder, round-robin.
func (r *checkRunner) traceFleet(d time.Duration, tr *tracer, m metrics) error {
	l, err := newLayers()
	if err != nil {
		return err
	}
	rec := telemetry.NewRecorder()
	teng, err := withRecorder(core.DefaultOptions(), rec)
	if err != nil {
		return err
	}
	ctx := context.Background()
	times, err := timedRounds(d,
		func() error { return r.checkAll(r.plain) },
		func() error {
			op := tr.root("op.check")
			reps := make([]checkReport, len(r.corpora))
			var err error
			for i, c := range r.corpora {
				cache, interns := l.newCorpusState()
				if reps[i], err = l.check(op, r.sets[i], c.test, c.meta, cache, interns); err != nil {
					break
				}
			}
			op.end()
			for i, rep := range reps {
				if err == nil {
					err = r.same(i, &core.CheckResult{Violations: rep.Violations, Coverage: rep.Coverage})
				}
			}
			if r.t.record(err) != nil {
				return fmt.Errorf("traced check differs from untraced: %w", err)
			}
			return nil
		},
		func() error {
			op := tr.root("op.staged")
			res := make([]*core.CheckResult, len(r.corpora))
			var err error
			for i, c := range r.corpora {
				sp := op.child("core.ProcessContext")
				cfgs, st, perr := r.plain.ProcessContext(ctx, c.test, c.meta)
				sp.end()
				if err = perr; err != nil {
					break
				}
				sp = op.child("core.CheckProcessedContext")
				res[i], err = r.plain.CheckProcessedContext(ctx, r.sets[i], cfgs, st)
				sp.end()
				if err != nil {
					break
				}
			}
			op.end()
			for i := range res {
				if err == nil {
					err = r.same(i, res[i])
				}
			}
			return r.t.record(err)
		},
		func() error { return r.checkAll(teng) },
	)
	if err != nil {
		return err
	}
	ops := len(times[1])
	tot := tr.totals()
	reportCheckLayers(m, tot, l, ops)
	pb, _ := perOp(tot, "core.ProcessContext", len(times[2]))
	m.set("core.process_s", pb, "s")
	cb, _ := perOp(tot, "core.CheckProcessedContext", len(times[2]))
	m.set("core.check_processed_s", cb, "s")
	_, un := perOp(tot, "op.check", ops)
	m.set("core.unattributed_s", un, "s")
	reportCheckCounters(m, rec)
	reportOverheads(m, tr, times[0], times[1], times[3])
	return nil
}

// reportCheckLayers sets the format, lexer and contracts metrics of a
// layer-composed check from its span totals.
func reportCheckLayers(m metrics, tot map[string]*layerTime, l *layers, ops int) {
	fb, _ := perOp(tot, "format.Process", ops)
	m.set("format.busy_s", fb, "s")
	m.set("format.lines", float64(l.lines)/float64(ops), "count")
	m.set("lexer.cache_hit_ratio", l.cacheHitRatio(), "frac")
	cb, _ := perOp(tot, "contracts.NewChecker", ops)
	m.set("contracts.compile_s", cb, "s")
	kb, _ := perOp(tot, "contracts.Check", ops)
	m.set("contracts.check_busy_s", kb, "s")
	vb, _ := perOp(tot, "contracts.Coverage", ops)
	m.set("contracts.coverage_busy_s", vb, "s")
	ub, _ := perOp(tot, "contracts.CheckUniqueAcross", ops)
	m.set("contracts.unique_s", ub, "s")
	_, ps := perOp(tot, "core.process", ops)
	m.set("core.process_self_s", ps, "s")
	_, cs := perOp(tot, "core.check", ops)
	m.set("core.check_self_s", cs, "s")
}

// reportCheckCounters reads the checker's own counters from rec.
func reportCheckCounters(m metrics, rec *telemetry.Recorder) {
	skipped := rec.Counter("check.contracts_skipped_by_index")
	if all := skipped + rec.Counter("check.contracts_evaluated"); all > 0 {
		m.set("contracts.index_skip_ratio", float64(skipped)/float64(all), "frac")
	}
}

// traceDist runs the process-backend check untraced, under a span, with
// a telemetry recorder, and the same sharding in process, round-robin.
// The in-process run is the baseline the dispatch overhead is measured
// against.
func (r *checkRunner) traceDist(d time.Duration, tr *tracer, m metrics) error {
	rec := telemetry.NewRecorder()
	opts, err := distOptions(core.ShardBackendProcess)
	if err != nil {
		return err
	}
	teng, err := withRecorder(opts, rec)
	if err != nil {
		return err
	}
	iopts, err := distOptions(core.ShardBackendInProcess)
	if err != nil {
		return err
	}
	ieng, err := core.New(iopts)
	if err != nil {
		return err
	}
	before := childUsage()
	times, err := timedRounds(d,
		func() error { return r.checkAll(r.eng) },
		func() error {
			op := tr.root("op.dist")
			defer op.end()
			sp := op.child("core.CheckContext")
			defer sp.end()
			return r.checkAll(r.eng)
		},
		func() error { return r.checkAll(teng) },
		func() error { return r.checkAll(ieng) },
	)
	if err != nil {
		return err
	}
	after := childUsage()
	distOps := len(times[0]) + len(times[1]) + len(times[2])
	tot := tr.totals()
	_, un := perOp(tot, "op.dist", len(times[1]))
	m.set("core.unattributed_s", un, "s")
	over := (ms(percentile(times[0], 50)) - ms(percentile(times[3], 50))) / 1000 / distShards
	m.set("shardrpc.dispatch_overhead_s", over, "s")
	telOps := float64(len(times[2]))
	m.set("shardrpc.worker_spawns", float64(rec.Counter("worker.spawns"))/telOps, "count")
	if disp := rec.Counter("shard.dispatches"); disp > 0 {
		shards := float64(distShards*len(r.corpora)) * telOps
		m.set("shardrpc.dispatch_useful_ratio", shards/float64(disp), "frac")
	}
	m.set("shardrpc.worker_cpu_s", (after.cpu-before.cpu).Seconds()/float64(distOps), "s")
	m.set("shardrpc.worker_peak_rss_mb", float64(after.maxRSSKB)/1024, "MB")
	reportCheckCounters(m, rec)
	reportOverheads(m, tr, times[0], times[1], times[2])
	return nil
}

// usage is the resource use of this process's waited-for children.
type usage struct {
	cpu      time.Duration
	maxRSSKB int64
}

func childUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err != nil {
		return usage{}
	}
	return usage{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), maxRSSKB: ru.Maxrss}
}
