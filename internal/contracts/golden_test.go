package contracts_test

import (
	"context"
	"reflect"
	"testing"

	"concord/internal/contracts"
	"concord/internal/core"
	"concord/internal/synth"
)

// TestCompiledGoldenMatchesLinear is the end-to-end golden comparison
// for the compiled check engine: over a W4 wide-area role at scale 0.75
// (≥200 configs) with contracts learned from a 40-config subset (≥200
// contracts), the engine's check must report exactly what the linear
// reference checker reports — same violations in the same order, same
// per-configuration coverage counts.
func TestCompiledGoldenMatchesLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second corpus; skipped in -short mode")
	}
	role, ok := synth.RoleByName("W4", 0.75)
	if !ok {
		t.Fatal("unknown synth role W4")
	}
	var srcs []core.Source
	for _, f := range synth.Generate(role).Configs {
		srcs = append(srcs, core.Source{Name: f.Name, Text: f.Text})
	}
	eng := core.MustNew(core.DefaultOptions())
	cfgs, pstats, err := eng.ProcessContext(context.Background(), srcs, nil)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := eng.LearnProcessed(cfgs[:40], pstats)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) < 200 || lr.Set.Len() < 200 {
		t.Fatalf("corpus too small for acceptance: %d configs, %d contracts (need ≥200 each)",
			len(cfgs), lr.Set.Len())
	}
	got, err := eng.CheckProcessed(lr.Set, cfgs, pstats)
	if err != nil {
		t.Fatal(err)
	}

	linear := contracts.NewChecker(lr.Set, contracts.WithLinearScan(true))
	want := linear.CheckAll(cfgs)
	if len(want) == 0 {
		t.Fatal("golden corpus produced no violations; comparison is vacuous")
	}
	if !reflect.DeepEqual(want, got.Violations) {
		t.Errorf("violations differ: linear=%d compiled=%d", len(want), len(got.Violations))
		for i := range want {
			if i < len(got.Violations) && !reflect.DeepEqual(want[i], got.Violations[i]) {
				t.Errorf("first divergence at %d:\nlinear   = %+v\ncompiled = %+v", i, want[i], got.Violations[i])
				break
			}
		}
	}
	if len(got.Coverage.PerConfig) != len(cfgs) {
		t.Fatalf("coverage covers %d configs, want %d", len(got.Coverage.PerConfig), len(cfgs))
	}
	for i, cfg := range cfgs {
		lc := linear.Coverage(cfg)
		wantCov := core.ConfigCoverage{Name: cfg.Name, SourceLines: lc.SourceLines, Covered: len(lc.Covered),
			ByCategory: make(map[contracts.Category]int, len(lc.ByCategory))}
		for cat, lines := range lc.ByCategory {
			wantCov.ByCategory[cat] = len(lines)
		}
		if gc := got.Coverage.PerConfig[i]; !reflect.DeepEqual(wantCov, gc) {
			t.Errorf("coverage differs for %s:\nlinear   = %+v\ncompiled = %+v", cfg.Name, wantCov, gc)
		}
	}
}
