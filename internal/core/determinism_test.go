package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"sort"
	"testing"

	"concord/internal/contracts"
	"concord/internal/synth"
)

// TestCheckAllDeterministic asserts byte-identical JSON output across
// repeated parallel runs: the sharded worker pool and the compiled
// engine's map-ordered buckets must not leak scheduling order into the
// report (ties are broken by file, line, then contract ID).
func TestCheckAllDeterministic(t *testing.T) {
	role, ok := synth.RoleByName("W4", 0.25)
	if !ok {
		t.Fatal("unknown synth role W4")
	}
	ds := synth.Generate(role)
	var srcs []Source
	for _, f := range ds.Configs {
		srcs = append(srcs, Source{Name: f.Name, Text: f.Text})
	}
	eng := MustNew(DefaultOptions())
	cfgs, pstats, err := eng.ProcessContext(context.Background(), srcs, nil)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := eng.LearnProcessed(cfgs[:20], pstats)
	if err != nil {
		t.Fatal(err)
	}

	marshal := func(cr *CheckResult) []byte {
		data, err := json.Marshal(struct {
			Violations []contracts.Violation `json:"violations"`
			Coverage   CoverageSummary       `json:"coverage"`
		}{cr.Violations, cr.Coverage})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	opts := DefaultOptions()
	opts.Parallelism = 8
	var first []byte
	for run := 0; run < 3; run++ {
		cr, err := MustNew(opts).CheckProcessed(lr.Set, cfgs, pstats)
		if err != nil {
			t.Fatal(err)
		}
		data := marshal(cr)
		if run == 0 {
			first = data
			if len(cr.Violations) == 0 {
				t.Log("warning: corpus produced no violations; determinism check covers coverage only")
			}
			continue
		}
		if !bytes.Equal(first, data) {
			t.Fatalf("run %d JSON differs from run 0 (%d vs %d bytes)", run, len(data), len(first))
		}
	}
}

// TestMetamorphicInvariance checks two whole-pipeline metamorphic
// properties on four synth roles:
//
//   - Permuting the order of the configurations changes neither the
//     learned set nor, on a corpus with planted bugs, the violations and
//     coverage of a check. Unique violations are excluded: they name the
//     first site of a value as the witness by design, so they follow
//     corpus order.
//   - The learn fold's worker count (Parallelism) never changes the
//     learned set, whichever worker folds which configuration.
func TestMetamorphicInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("learns four corpora several times; skipped in -short mode")
	}
	for _, role := range []string{"W4", "W2", "E1", "E2"} {
		t.Run(role, func(t *testing.T) {
			srcs, meta, _ := edgeSources(t, role, 0.25)
			rng := rand.New(rand.NewSource(7))
			shuffle := func(in []Source) []Source {
				out := append([]Source(nil), in...)
				rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
				return out
			}
			marshal := func(lr *LearnResult, err error) (*contracts.Set, []byte) {
				if err != nil {
					t.Fatal(err)
				}
				data, err := json.Marshal(lr.Set)
				if err != nil {
					t.Fatal(err)
				}
				return lr.Set, data
			}
			// The worker-count sweep learns from one processed corpus, so
			// only the mining fold's schedule varies.
			eng := MustNew(DefaultOptions())
			cfgs, pstats, err := eng.ProcessContext(context.Background(), srcs, meta)
			if err != nil {
				t.Fatal(err)
			}
			learnProcessed := func(parallelism int) (*contracts.Set, []byte) {
				opts := DefaultOptions()
				opts.Parallelism = parallelism
				return marshal(MustNew(opts).LearnProcessed(cfgs, pstats))
			}

			set, want := learnProcessed(1)
			if set.Len() == 0 {
				t.Fatal("no contracts learned; the comparison is vacuous")
			}
			for _, p := range []int{2, 3, 7} {
				if _, got := learnProcessed(p); !bytes.Equal(got, want) {
					t.Errorf("Parallelism %d learned a different set than Parallelism 1 (%d vs %d bytes)", p, len(got), len(want))
				}
			}
			if _, got := marshal(eng.Learn(shuffle(srcs), meta)); !bytes.Equal(got, want) {
				t.Errorf("permuted corpus learned a different set (%d vs %d bytes)", len(got), len(want))
			}

			// Plant one bug in every third configuration, cycling the
			// mutation kinds.
			planted := append([]Source(nil), srcs...)
			kinds := synth.Mutations()
			for i := 0; i < len(planted); i += 3 {
				if text, _, ok := synth.Mutate(string(planted[i].Text), kinds[(i/3)%len(kinds)], int64(i)); ok {
					planted[i].Text = []byte(text)
				}
			}
			check := func(corpus []Source) []byte {
				cr, err := eng.Check(set, corpus, meta)
				if err != nil {
					t.Fatal(err)
				}
				var vs []contracts.Violation
				for _, v := range cr.Violations {
					if v.Category != contracts.CatUnique {
						vs = append(vs, v)
					}
				}
				if len(vs) == 0 {
					t.Fatal("planted corpus has no non-unique violations; the comparison is vacuous")
				}
				cov := cr.Coverage
				sort.Slice(cov.PerConfig, func(i, j int) bool { return cov.PerConfig[i].Name < cov.PerConfig[j].Name })
				data, err := json.Marshal(struct {
					Violations []contracts.Violation `json:"violations"`
					Coverage   CoverageSummary       `json:"coverage"`
				}{vs, cov})
				if err != nil {
					t.Fatal(err)
				}
				return data
			}
			if got, want := check(shuffle(planted)), check(planted); !bytes.Equal(got, want) {
				t.Errorf("permuted corpus checks differently (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}
