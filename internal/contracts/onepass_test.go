package contracts_test

import (
	"context"
	"reflect"
	"testing"

	"concord/internal/contracts"
	"concord/internal/core"
	"concord/internal/lexer"
	"concord/internal/synth"
)

// scanSites is the line-scan reference for Unique site extraction: every
// line of the configuration, in order, whose pattern is a Unique
// contract's anchor, keyed by contract ID.
func scanSites(set *contracts.Set, cfg *lexer.Config) map[string][]contracts.UniqueSite {
	out := make(map[string][]contracts.UniqueSite)
	for _, c := range set.Contracts {
		u, ok := c.(*contracts.Unique)
		if !ok || out[u.ID()] != nil {
			continue
		}
		for i := range cfg.Lines {
			line := &cfg.Lines[i]
			if line.Pattern != u.Pattern || u.ParamIdx >= len(line.Params) {
				continue
			}
			v := line.Params[u.ParamIdx].Value
			out[u.ID()] = append(out[u.ID()], contracts.UniqueSite{Key: v.Key(), Display: v.String(), Line: line.Num})
		}
	}
	return out
}

// TestOnePassMatchesSeparateCalls is the differential gate for the
// engine's one pass per configuration: on engine-processed E1, E2 and
// W4 corpora with planted bugs (contracts learned from a clean subset),
// CheckConfig must return exactly what separate Check, Coverage
// and UniqueContributions calls return, and its Unique sites must equal
// a plain line scan, on both the compiled checker (with the run's
// intern table) and the linear reference.
func TestOnePassMatchesSeparateCalls(t *testing.T) {
	for _, name := range []string{"E1", "E2", "W4"} {
		t.Run(name, func(t *testing.T) {
			role, ok := synth.RoleByName(name, 0.25)
			if !ok {
				t.Fatalf("unknown synth role %s", name)
			}
			ds := synth.Generate(role)
			var srcs, meta []core.Source
			for _, f := range ds.Configs {
				srcs = append(srcs, core.Source{Name: f.Name, Text: f.Text})
			}
			for _, f := range ds.Meta {
				meta = append(meta, core.Source{Name: f.Name, Text: f.Text})
			}
			eng := core.MustNew(core.DefaultOptions())
			cfgs, pstats, err := eng.ProcessContext(context.Background(), srcs, meta)
			if err != nil {
				t.Fatal(err)
			}
			lr, err := eng.LearnProcessed(cfgs[:min(len(cfgs), 8)], pstats)
			if err != nil {
				t.Fatal(err)
			}
			// Plant one bug in every other configuration, cycling the
			// mutation kinds, so every role has violations to compare.
			kinds := synth.Mutations()
			for i := 1; i < len(srcs); i += 2 {
				if text, _, ok := synth.Mutate(string(srcs[i].Text), kinds[(i/2)%len(kinds)], int64(i)); ok {
					srcs[i].Text = []byte(text)
				}
			}
			if cfgs, _, err = eng.ProcessContext(context.Background(), srcs, meta); err != nil {
				t.Fatal(err)
			}
			// The linear reference evaluates relations pairwise, so it
			// checks only the first configurations (planted ones
			// included).
			for _, mode := range []struct {
				name string
				ch   *contracts.Checker
				cfgs []*lexer.Config
			}{
				{"compiled", contracts.NewChecker(lr.Set, contracts.WithInterns(lexer.CommonInterns(cfgs))), cfgs},
				{"linear", contracts.NewChecker(lr.Set, contracts.WithLinearScan(true)), cfgs[:min(len(cfgs), 16)]},
			} {
				ch := mode.ch
				var violations, covered, sites int
				for _, cfg := range mode.cfgs {
					got := ch.CheckConfig(cfg)
					want := contracts.ConfigCheck{
						Violations: ch.Check(cfg),
						Coverage:   ch.Coverage(cfg),
						Unique:     ch.UniqueContributions(cfg),
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %s: one pass differs from separate calls:\n got %+v\nwant %+v", mode.name, cfg.Name, got, want)
					}
					if scan := scanSites(lr.Set, cfg); !reflect.DeepEqual(got.Unique, scan) {
						t.Fatalf("%s %s: Unique sites differ from a line scan:\n got %+v\nwant %+v", mode.name, cfg.Name, got.Unique, scan)
					}
					violations += len(got.Violations)
					covered += len(got.Coverage.Covered)
					for _, s := range got.Unique {
						sites += len(s)
					}
				}
				if violations == 0 || covered == 0 || sites == 0 {
					t.Errorf("%s: %d violations, %d covered lines, %d Unique sites; the comparison is vacuous", mode.name, violations, covered, sites)
				}
			}
		})
	}
}
