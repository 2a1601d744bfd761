package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"concord/internal/contracts"
	"concord/internal/core"
	"concord/internal/synth"
	"concord/internal/telemetry"
)

// learnSplits are the learn workload's corpora: a flat WAN role (W4
// shape, where relational mining dominates) and an indented WAN role (W2
// shape). The held-out test devices are planted once per mutation kind.
var learnSplits = []roleSplit{
	{role: "W4", scale: 0.2, train: 16, test: 30},
	{role: "W2", scale: 0.5, train: 16, test: 24},
}

type learnRunner struct {
	seed    int64
	corpora []*corpus
	// planted[i][k] is corpus i's held-out devices, each mutated, with
	// kinds rotated by k, so every device is planted with every kind.
	planted [][][]core.Source
	plants  [][][]plant
	eng     *core.Engine
	want    []string // learned-set digest per corpus
	sets    []*contracts.Set
	t       tally
}

func setupLearn(seed int64) (runner, error) {
	rng := rand.New(rand.NewSource(seed))
	r := &learnRunner{seed: seed}
	for _, sp := range learnSplits {
		c, err := makeCorpus(rng, sp)
		if err != nil {
			return nil, err
		}
		r.corpora = append(r.corpora, c)
		var srcs [][]core.Source
		var plants [][]plant
		for k := range synth.Mutations() {
			s, p := plantSome(rng, c.clean, len(c.clean), k)
			srcs, plants = append(srcs, s), append(plants, p)
		}
		r.planted, r.plants = append(r.planted, srcs), append(r.plants, plants)
	}
	eng, err := core.New(core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	r.eng = eng
	return r, nil
}

func (r *learnRunner) tally() *tally { return &r.t }
func (r *learnRunner) close()        {}

// learnAll learns every corpus with eng and checks each set's digest.
func (r *learnRunner) learnAll(eng *core.Engine) error {
	for i, c := range r.corpora {
		res, err := eng.Learn(c.train, c.meta)
		if err == nil {
			err = r.same(i, res.Set)
		}
		if r.t.record(err) != nil {
			return err
		}
	}
	return nil
}

// same compares a learned set with the expected digest of corpus i.
func (r *learnRunner) same(i int, set *contracts.Set) error {
	got, err := digest(set)
	if err != nil {
		return err
	}
	if got != r.want[i] {
		return fmt.Errorf("%s learned set digest %s, want %s", r.corpora[i].role, got[:12], r.want[i][:12])
	}
	return nil
}

func (r *learnRunner) warmup() error {
	for _, c := range r.corpora {
		res, err := r.eng.Learn(c.train, c.meta)
		if r.t.record(err) != nil {
			return err
		}
		d, err := digest(res.Set)
		if err != nil {
			return err
		}
		if err := r.t.record(checkPin(r.seed, "learn/"+c.role+"/learned", d)); err != nil {
			return err
		}
		r.want = append(r.want, d)
		r.sets = append(r.sets, res.Set)
	}
	return nil
}

func (r *learnRunner) measure(d time.Duration) ([]time.Duration, time.Duration) {
	return loop(d, minBatchOps, r.peakOp)
}

func (r *learnRunner) peakOp() error { return r.learnAll(r.eng) }

// oracle scores the learned sets against the generator manifest and
// checks the planted held-out devices against them.
func (r *learnRunner) oracle(m metrics) error {
	var p precision
	var det detection
	for i, c := range r.corpora {
		p.add(c.truth, r.sets[i])
		clean, err := r.eng.Check(r.sets[i], c.clean, c.meta)
		if r.t.record(err) != nil {
			return err
		}
		for k, srcs := range r.planted[i] {
			planted, err := r.eng.Check(r.sets[i], srcs, c.meta)
			if r.t.record(err) != nil {
				return err
			}
			det.add(r.plants[i][k], planted.Violations, clean.Violations)
		}
	}
	m.set("learn_precision", p.value(), "frac")
	det.report(m)
	return nil
}

// trace runs four variants round-robin until d has elapsed: the
// untraced engine (the reference), the layer-composed pipeline under
// spans, the staged engine API under spans, and the engine with a
// telemetry recorder attached.
func (r *learnRunner) trace(d time.Duration, tr *tracer, m metrics) error {
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
		func() error { return r.learnAll(r.eng) },
		func() error {
			op := tr.root("op.learn")
			sets := make([]*contracts.Set, len(r.corpora))
			var err error
			for i, c := range r.corpora {
				if sets[i], err = l.learn(op, c.train, c.meta); err != nil {
					break
				}
			}
			op.end()
			for i := range sets {
				if err == nil {
					err = r.same(i, sets[i])
				}
			}
			if r.t.record(err) != nil {
				return fmt.Errorf("traced learn differs from untraced: %w", err)
			}
			return nil
		},
		func() error {
			op := tr.root("op.staged")
			sets := make([]*contracts.Set, len(r.corpora))
			var err error
			for i, c := range r.corpora {
				sp := op.child("core.ProcessContext")
				cfgs, st, perr := r.eng.ProcessContext(ctx, c.train, c.meta)
				sp.end()
				if err = perr; err != nil {
					break
				}
				sp = op.child("core.LearnProcessedContext")
				res, lerr := r.eng.LearnProcessedContext(ctx, cfgs, st)
				sp.end()
				if err = lerr; err != nil {
					break
				}
				sets[i] = res.Set
			}
			op.end()
			for i := range sets {
				if err == nil {
					err = r.same(i, sets[i])
				}
			}
			return r.t.record(err)
		},
		func() error { return r.learnAll(teng) },
	)
	if err != nil {
		return err
	}
	ops, staged, withRec := len(times[1]), len(times[2]), float64(len(times[3]))
	tot := tr.totals()
	fb, _ := perOp(tot, "format.Process", ops)
	m.set("format.busy_s", fb, "s")
	m.set("format.lines", float64(l.lines)/float64(ops), "count")
	m.set("lexer.cache_hit_ratio", l.cacheHitRatio(), "frac")
	mb, _ := perOp(tot, "mining.MineContext", ops)
	m.set("mining.busy_s", mb, "s")
	cand := float64(rec.Counter("mine.relation.candidates")) / withRec
	m.set("mining.relation_candidates", cand, "count")
	if cand > 0 {
		m.set("mining.relation_accept_ratio", float64(rec.Counter("mine.relation.accepted"))/withRec/cand, "frac")
	}
	zb, _ := perOp(tot, "minimize.Set", ops)
	m.set("minimize.busy_s", zb, "s")
	m.set("minimize.reduction", median(l.minRe), "ratio")
	pb, _ := perOp(tot, "core.ProcessContext", staged)
	m.set("core.process_s", pb, "s")
	lb, _ := perOp(tot, "core.LearnProcessedContext", staged)
	m.set("core.learn_processed_s", lb, "s")
	_, ps := perOp(tot, "core.process", ops)
	m.set("core.process_self_s", ps, "s")
	_, un := perOp(tot, "op.learn", ops)
	m.set("core.unattributed_s", un, "s")
	reportOverheads(m, tr, times[0], times[1], times[3])
	return nil
}
