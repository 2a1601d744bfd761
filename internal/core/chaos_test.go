package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"concord/internal/contracts"
	"concord/internal/diag"
	"concord/internal/faultinject"
	"concord/internal/relations"
	"concord/internal/telemetry"
)

// chaosSources builds a homogeneous corpus of n small configurations
// with enough shared structure for every miner category to engage.
func chaosSources(n int) []Source {
	var out []Source
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("r%02d.cfg", i)
		text := fmt.Sprintf(
			"hostname r%02d\n"+
				"interface Loopback0\n"+
				"   ip address 10.0.%d.1\n"+
				"router bgp 65000\n"+
				"   router-id 10.0.%d.1\n"+
				"   vlan %d\n",
			i, i, i, 100+10*i)
		out = append(out, Source{Name: name, Text: []byte(text)})
	}
	return out
}

// contractIDs flattens a learned set to a sorted-comparable string.
func contractIDs(lr *LearnResult) string {
	ids := make([]string, 0, lr.Set.Len())
	for _, c := range lr.Set.Contracts {
		ids = append(ids, c.ID())
	}
	return strings.Join(ids, "\n")
}

// assertNoLeak polls until the goroutine count returns to the baseline.
func assertNoLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosLearnContainsProcessFaults is the headline containment
// scenario: 3 of 20 sources panic their processing worker; learning
// completes on the 17 survivors, reports exactly 3 source-scoped error
// diagnostics, matches a direct run over the healthy sources, and
// leaks no goroutines.
func TestChaosLearnContainsProcessFaults(t *testing.T) {
	defer faultinject.Reset()
	srcs := chaosSources(20)
	faulty := map[string]bool{"r03.cfg": true, "r07.cfg": true, "r11.cfg": true}
	injected := errors.New("injected process fault")
	faultinject.Set("core.process.source", faultinject.PanicOn(injected, "r03.cfg", "r07.cfg", "r11.cfg"))

	opts := DefaultOptions()
	opts.Parallelism = 4
	before := runtime.NumGoroutine()
	lr, err := MustNew(opts).Learn(srcs, nil)
	if err != nil {
		t.Fatalf("Learn = %v, want containment", err)
	}
	assertNoLeak(t, before)
	if lr.Stats.Configs != 17 || lr.Stats.Skipped != 3 {
		t.Errorf("Stats = %d configs, %d skipped; want 17, 3", lr.Stats.Configs, lr.Stats.Skipped)
	}
	if len(lr.Diagnostics) != 3 {
		t.Fatalf("diagnostics = %d, want 3: %+v", len(lr.Diagnostics), lr.Diagnostics)
	}
	seen := map[string]bool{}
	for _, d := range lr.Diagnostics {
		if d.Severity != diag.SevError || d.Stage != "process" {
			t.Errorf("diagnostic = %+v, want process-stage error", d)
		}
		if !faulty[d.Source] {
			t.Errorf("diagnostic attributed to %q, not a faulty source", d.Source)
		}
		if !errors.Is(d.AsError(), injected) {
			t.Errorf("diagnostic lost the injected cause: %v", d.AsError())
		}
		if d.Stack == "" {
			t.Error("diagnostic missing panic stack")
		}
		seen[d.Source] = true
	}
	if len(seen) != 3 {
		t.Errorf("diagnostics cover %d distinct sources, want 3", len(seen))
	}

	// The survivors' result is identical to learning the 17 healthy
	// sources directly with no faults in play.
	faultinject.Reset()
	var healthy []Source
	for _, s := range srcs {
		if !faulty[s.Name] {
			healthy = append(healthy, s)
		}
	}
	want, err := MustNew(opts).Learn(healthy, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, wantIDs := contractIDs(lr), contractIDs(want); got != wantIDs {
		t.Errorf("contained run learned a different set:\ngot:\n%s\nwant:\n%s", got, wantIDs)
	}
}

// TestChaosLearnStrictFailsFast asserts strict mode converts the first
// injected fault into an error carrying the cause, with no partial
// result and no leaked workers.
func TestChaosLearnStrictFailsFast(t *testing.T) {
	defer faultinject.Reset()
	injected := errors.New("injected process fault")
	faultinject.Set("core.process.source", faultinject.PanicOn(injected, "r05.cfg"))

	opts := DefaultOptions()
	opts.Parallelism = 4
	opts.Strict = true
	before := runtime.NumGoroutine()
	lr, err := MustNew(opts).Learn(chaosSources(20), nil)
	assertNoLeak(t, before)
	if err == nil {
		t.Fatal("strict Learn succeeded despite injected fault")
	}
	if lr != nil {
		t.Error("strict Learn returned a partial result alongside the error")
	}
	if !errors.Is(err, injected) {
		t.Errorf("strict error lost the cause: %v", err)
	}
	if !strings.Contains(err.Error(), "r05.cfg") {
		t.Errorf("strict error does not name the faulty source: %v", err)
	}
}

// TestChaosMiningFaultContained injects a panic into one
// configuration's relational-mining pass: learning still succeeds,
// records a mine-stage diagnostic for that configuration, and the
// corpus statistics are unaffected (the source processed fine).
func TestChaosMiningFaultContained(t *testing.T) {
	defer faultinject.Reset()
	injected := errors.New("injected mining fault")
	faultinject.Set("mining.relational.config", faultinject.PanicOn(injected, "r04.cfg"))

	for _, parallelism := range []int{1, 4} {
		opts := DefaultOptions()
		opts.Parallelism = parallelism
		lr, err := MustNew(opts).Learn(chaosSources(20), nil)
		if err != nil {
			t.Fatalf("parallelism %d: Learn = %v", parallelism, err)
		}
		if lr.Stats.Configs != 20 || lr.Stats.Skipped != 0 {
			t.Errorf("parallelism %d: stats = %+v", parallelism, lr.Stats)
		}
		var mineDiags []diag.Diagnostic
		for _, d := range lr.Diagnostics {
			if d.Stage == "mine" {
				mineDiags = append(mineDiags, d)
			}
		}
		if len(mineDiags) != 1 || mineDiags[0].Source != "r04.cfg" {
			t.Errorf("parallelism %d: mine diagnostics = %+v, want one for r04.cfg",
				parallelism, mineDiags)
		}
	}
}

// TestChaosMiningStatsFaultContained injects a panic into one
// configuration's statistics fold. That configuration's relational scan
// is dropped with it, so no relational candidate holds in more
// configurations than its pattern was counted in: every learned
// relational confidence stays at most 1 (before this rule, five read
// 20/19), and the learned set is the same at any parallelism.
func TestChaosMiningStatsFaultContained(t *testing.T) {
	defer faultinject.Reset()
	injected := errors.New("injected mining stats fault")
	faultinject.Set("mining.stats.config", faultinject.PanicOn(injected, "r04.cfg"))

	var sets []string
	for _, parallelism := range []int{1, 4} {
		opts := DefaultOptions()
		opts.Parallelism = parallelism
		lr, err := MustNew(opts).Learn(chaosSources(20), nil)
		if err != nil {
			t.Fatalf("parallelism %d: Learn = %v", parallelism, err)
		}
		var mineDiags []diag.Diagnostic
		for _, d := range lr.Diagnostics {
			if d.Stage == "mine" {
				mineDiags = append(mineDiags, d)
			}
		}
		if len(mineDiags) != 1 || mineDiags[0].Source != "r04.cfg" {
			t.Errorf("parallelism %d: mine diagnostics = %+v, want one for r04.cfg", parallelism, mineDiags)
		}
		relational := 0
		for _, c := range lr.Set.Contracts {
			r, ok := c.(*contracts.Relational)
			if !ok {
				continue
			}
			relational++
			if r.Evidence.Confidence > 1 {
				t.Errorf("parallelism %d: %s has confidence %v (support %d)", parallelism, r.ID(), r.Evidence.Confidence, r.Evidence.Support)
			}
		}
		if relational == 0 {
			t.Fatalf("parallelism %d: no relational contract learned; the corpus does not exercise the rule", parallelism)
		}
		b, err := json.Marshal(lr.Set)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, string(b))
	}
	if sets[0] != sets[1] {
		t.Errorf("learned sets differ between parallelism 1 and 4:\n%s\n%s", sets[0], sets[1])
	}
}

// TestChaosMiningStrictAborts asserts the parallel relational miner
// propagates an injected fault as an error in strict mode.
func TestChaosMiningStrictAborts(t *testing.T) {
	defer faultinject.Reset()
	injected := errors.New("injected mining fault")
	faultinject.Set("mining.relational.config", faultinject.PanicOn(injected, "r04.cfg"))
	opts := DefaultOptions()
	opts.Parallelism = 4
	opts.Strict = true
	before := runtime.NumGoroutine()
	_, err := MustNew(opts).Learn(chaosSources(20), nil)
	assertNoLeak(t, before)
	if err == nil || !errors.Is(err, injected) {
		t.Fatalf("strict Learn = %v, want injected mining fault", err)
	}
}

// TestChaosCheckFaultContained injects a panic into one
// configuration's check pass: checking completes without leaking
// workers, that configuration stays in the corpus statistics but is
// absent from coverage, and a check-stage diagnostic names it.
func TestChaosCheckFaultContained(t *testing.T) {
	defer faultinject.Reset()
	srcs := chaosSources(20)
	opts := DefaultOptions()
	opts.Parallelism = 4
	eng := MustNew(opts)
	lr, err := eng.Learn(srcs, nil)
	if err != nil {
		t.Fatal(err)
	}

	injected := errors.New("injected check fault")
	faultinject.Set("core.check.config", faultinject.PanicOn(injected, "r09.cfg"))
	before := runtime.NumGoroutine()
	cr, err := eng.Check(lr.Set, srcs, nil)
	if err != nil {
		t.Fatalf("Check = %v, want containment", err)
	}
	assertNoLeak(t, before)
	if cr.Stats.Configs != len(srcs) {
		t.Errorf("stats.Configs = %d, want %d (a check panic does not drop the config from the corpus)", cr.Stats.Configs, len(srcs))
	}
	if len(cr.Diagnostics) != 1 || cr.Diagnostics[0].Source != "r09.cfg" {
		t.Fatalf("diagnostics = %+v, want one for r09.cfg", cr.Diagnostics)
	}
	if got := string(cr.Diagnostics[0].Stage); got != "check" {
		t.Errorf("diagnostic stage = %q", got)
	}
	if len(cr.Coverage.PerConfig) != 19 {
		t.Errorf("coverage covers %d configs, want 19", len(cr.Coverage.PerConfig))
	}
	for _, cc := range cr.Coverage.PerConfig {
		if cc.Name == "r09.cfg" {
			t.Error("faulty config still present in coverage")
		}
	}
}

// TestChaosCheckRelationPanicOneDiagnostic runs a hand-built set whose
// one relational contract uses a custom relation that always panics:
// every configuration skips the contract exactly once, so N checked
// configurations give N diagnostics and N check.contracts_skipped, not
// one per pass over the configuration.
func TestChaosCheckRelationPanicOneDiagnostic(t *testing.T) {
	const n = 5
	srcs := chaosSources(n)
	boom := func(lhs, witness relations.Value) bool { panic("injected relation fault") }
	opts := DefaultOptions()
	opts.Telemetry = telemetry.NewRecorder()
	opts.ExtraRelations = []relations.Definition{{
		Rel:      "boom",
		Holds:    boom,
		NewIndex: func() relations.Index { return relations.NewFuncIndex("boom", boom) },
	}}
	rel := &contracts.Relational{
		Pattern1: "/interface Loopback[num]/ip address [ip4]", Transform1: "id", Rel: "boom",
		Pattern2: "/router bgp [num]/router-id [ip4]", Transform2: "id",
	}
	eng := MustNew(opts)
	cr, err := eng.Check(&contracts.Set{Contracts: []contracts.Contract{rel}}, srcs, nil)
	if err != nil {
		t.Fatalf("Check = %v, want containment", err)
	}
	if len(cr.Diagnostics) != n {
		t.Fatalf("diagnostics = %d, want %d (one per configuration)", len(cr.Diagnostics), n)
	}
	for _, d := range cr.Diagnostics {
		if !strings.Contains(d.Message, rel.ID()) || !strings.Contains(d.Message, "skipped") {
			t.Errorf("diagnostic = %q, want the contract ID and skipped", d.Message)
		}
	}
	if got := opts.Telemetry.Counter("check.contracts_skipped"); got != n {
		t.Errorf("check.contracts_skipped = %d, want %d", got, n)
	}
	if len(cr.Violations) != 0 || len(cr.Coverage.PerConfig) != n {
		t.Errorf("violations = %+v, coverage over %d configs; want none and %d", cr.Violations, len(cr.Coverage.PerConfig), n)
	}
}

// TestChaosMetaFaultContained injects a panic into metadata
// processing: lenient runs drop the metadata file with a diagnostic,
// strict runs abort.
func TestChaosMetaFaultContained(t *testing.T) {
	defer faultinject.Reset()
	injected := errors.New("injected meta fault")
	faultinject.Set("core.process.meta", faultinject.PanicOn(injected, "m.json"))
	meta := []Source{{Name: "m.json", Text: []byte(`{"a": 1}`)}}

	lr, err := MustNew(DefaultOptions()).Learn(chaosSources(20), meta)
	if err != nil {
		t.Fatalf("Learn = %v, want containment", err)
	}
	if len(lr.Diagnostics) != 1 || lr.Diagnostics[0].Source != "m.json" {
		t.Errorf("diagnostics = %+v, want one for m.json", lr.Diagnostics)
	}

	opts := DefaultOptions()
	opts.Strict = true
	if _, err := MustNew(opts).Learn(chaosSources(20), meta); !errors.Is(err, injected) {
		t.Errorf("strict Learn = %v, want injected meta fault", err)
	}
}

// TestDiagnosticsAggregateAcrossRuns verifies a caller-attached
// collector accumulates while each result still carries only its own
// run's diagnostics.
func TestDiagnosticsAggregateAcrossRuns(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Set("core.process.source",
		faultinject.PanicOn(errors.New("injected"), "r01.cfg"))
	opts := DefaultOptions()
	opts.Diagnostics = diag.New()
	eng := MustNew(opts)
	for i := 0; i < 3; i++ {
		lr, err := eng.Learn(chaosSources(8), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(lr.Diagnostics) != 1 {
			t.Fatalf("run %d: result diagnostics = %d, want 1", i, len(lr.Diagnostics))
		}
	}
	if got := opts.Diagnostics.Len(); got != 3 {
		t.Errorf("aggregated diagnostics = %d, want 3", got)
	}
}
