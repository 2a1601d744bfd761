package contracts

import (
	"errors"
	"strings"
	"testing"

	"concord/internal/diag"
	"concord/internal/faultinject"
	"concord/internal/lexer"
	"concord/internal/telemetry"
)

// TestCheckContractPanicSkipped asserts a panicking contract is
// skipped per configuration with a diagnostic and telemetry count,
// while the remaining contracts still evaluate.
func TestCheckContractPanicSkipped(t *testing.T) {
	defer faultinject.Reset()
	bad := &Present{Pattern: "/router bgp [num]", Display: "/router bgp [a:num]"}
	good := &Present{Pattern: "/hostname [word]", Display: "/hostname [a:word]"}
	set := &Set{Contracts: []Contract{bad, good}}
	injected := errors.New("injected contract fault")
	faultinject.Set("contracts.check.contract", faultinject.PanicOn(injected, bad.ID()))

	dc := diag.New()
	rec := telemetry.NewRecorder()
	ch := NewChecker(set, WithDiagnostics(dc), WithTelemetry(rec))
	// Config violates both contracts; only the good contract's
	// violation survives, the bad contract is skipped.
	cfg := cfgFromText(t, "r1.cfg", "interface Ethernet1\n")
	vs := ch.Check(cfg)
	if len(vs) != 1 || !strings.Contains(vs[0].Detail, "hostname") {
		t.Errorf("violations = %+v, want only the hostname contract's", vs)
	}
	ds := dc.All()
	if len(ds) != 1 {
		t.Fatalf("diagnostics = %+v, want 1", ds)
	}
	d := ds[0]
	if d.Severity != diag.SevError || d.Stage != "check" || d.Source != "r1.cfg" {
		t.Errorf("diagnostic = %+v", d)
	}
	if !strings.Contains(d.Message, bad.ID()) || !strings.Contains(d.Message, "skipped") {
		t.Errorf("message = %q, want contract ID + skipped", d.Message)
	}
	if !errors.Is(d.AsError(), injected) {
		t.Errorf("diagnostic lost cause: %v", d.AsError())
	}
	if got := rec.Counter("check.contracts_skipped"); got != 1 {
		t.Errorf("check.contracts_skipped = %d, want 1", got)
	}
}

// TestCheckContractPanicPropagates asserts containment is opt-in: a
// checker without a collector, or in strict mode, lets the panic
// escape to the caller's recovery layer.
func TestCheckContractPanicPropagates(t *testing.T) {
	defer faultinject.Reset()
	bad := &Present{Pattern: "/router bgp [num]", Display: "/router bgp [a:num]"}
	set := &Set{Contracts: []Contract{bad}}
	faultinject.Set("contracts.check.contract", faultinject.PanicOn("boom", bad.ID()))
	cfg := cfgFromText(t, "r1.cfg", "interface Ethernet1\n")

	for _, tc := range []struct {
		name string
		ch   *Checker
	}{
		{"no collector", NewChecker(set)},
		{"strict", NewChecker(set, WithDiagnostics(diag.New()), WithStrict(true))},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: panic did not propagate", tc.name)
				}
			}()
			tc.ch.Check(cfg)
		}()
	}
}

// TestCoverageContractPanicSkipped mirrors the check containment for
// coverage: Coverage runs the same per-contract evaluation as Check, so
// a fault at the one contract site degrades the coverage result too.
func TestCoverageContractPanicSkipped(t *testing.T) {
	defer faultinject.Reset()
	bad := &Present{Pattern: "/hostname [word]", Display: "/hostname [a:word]"}
	set := &Set{Contracts: []Contract{bad}}
	faultinject.Set("contracts.check.contract", faultinject.PanicOn("boom", bad.ID()))

	dc := diag.New()
	ch := NewChecker(set, WithDiagnostics(dc))
	cov := ch.Coverage(cfgFromText(t, "r1.cfg", "hostname r1\n"))
	if cov == nil {
		t.Fatal("Coverage = nil, want degraded result")
	}
	if dc.Len() != 1 || !strings.Contains(dc.All()[0].Message, bad.ID()) {
		t.Errorf("diagnostics = %+v", dc.All())
	}
}

// TestCheckUniqueGlobalPanicSkipped covers the cross-configuration
// unique pass: the faulty unique contract is skipped corpus-wide with
// one diagnostic, other contracts unaffected.
func TestCheckUniqueGlobalPanicSkipped(t *testing.T) {
	defer faultinject.Reset()
	u := &Unique{Pattern: "/hostname [word]", Display: "/hostname [a:word]", ParamIdx: 0}
	set := &Set{Contracts: []Contract{u}}
	faultinject.Set("contracts.check.unique_global", faultinject.PanicOn("boom", u.ID()))

	dc := diag.New()
	ch := NewChecker(set, WithDiagnostics(dc))
	vs := ch.CheckUniqueAcross([]*lexer.Config{
		cfgFromText(t, "r1.cfg", "hostname dup\n"),
		cfgFromText(t, "r2.cfg", "hostname dup\n"),
	})
	if len(vs) != 0 {
		t.Errorf("violations = %+v, want none (contract skipped)", vs)
	}
	if dc.Len() != 1 {
		t.Errorf("diagnostics = %+v, want 1", dc.All())
	}
}
