package core

import (
	"reflect"
	"strings"
	"testing"

	"concord/internal/contracts"
	"concord/internal/diag"
	"concord/internal/faultinject"
)

// uniqueDuplicates keeps the cross-config Unique violations of a report
// (the line-level ones; a missing unique line is file-level).
func uniqueDuplicates(vs []contracts.Violation) []contracts.Violation {
	var out []contracts.Violation
	for _, v := range vs {
		if v.Category == contracts.CatUnique && !v.FileLevel() {
			out = append(out, v)
		}
	}
	return out
}

// TestOnePassUniqueMatchesWalk: on an E1 corpus with a device copied
// under a second name, the cross-config Unique violations of a cold
// unsharded check (the reduce over every configuration's sites) must
// equal the CheckUniqueAcross walk over the processed configurations.
func TestOnePassUniqueMatchesWalk(t *testing.T) {
	srcs, meta, _ := edgeSources(t, "E1", 0.25)
	eng := MustNew(DefaultOptions())
	lr, err := eng.Learn(srcs, meta)
	if err != nil {
		t.Fatal(err)
	}
	// The copy sits mid-corpus, so it both follows its original and
	// precedes later devices.
	mid := len(srcs) / 2
	copied := Source{Name: "copy-of-" + srcs[0].Name, Text: srcs[0].Text}
	planted := append(append(append([]Source(nil), srcs[:mid]...), copied), srcs[mid:]...)

	cr, err := eng.Check(lr.Set, planted, meta)
	if err != nil {
		t.Fatal(err)
	}
	cfgs, _ := eng.Process(planted, meta)
	want := contracts.NewChecker(lr.Set).CheckUniqueAcross(cfgs)
	if got := uniqueDuplicates(cr.Violations); !reflect.DeepEqual(got, want) {
		t.Errorf("engine Unique violations differ from the walk:\n got %+v\nwant %+v", got, want)
	}
	onCopy := 0
	for _, v := range want {
		if v.File == copied.Name {
			onCopy++
		}
	}
	if onCopy == 0 {
		t.Fatalf("the copied device duplicates nothing (%d Unique violations); the comparison is vacuous", len(want))
	}
}

// TestOnePassChaosConfigPanic: when one configuration's check panics on
// the cold stream, lenient mode still reports that configuration's
// Unique duplicates and records the same diagnostic at Parallelism 4 as
// at Parallelism 1, and strict mode aborts with the same error text.
func TestOnePassChaosConfigPanic(t *testing.T) {
	defer faultinject.Reset()
	lr, err := MustNew(DefaultOptions()).Learn(chaosSources(20), nil)
	if err != nil {
		t.Fatal(err)
	}
	test := shardCorpus(24)
	victim := test[13].Name // reuses r01's router-id
	clean, err := MustNew(DefaultOptions()).Check(lr.Set, test, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wantDups []contracts.Violation
	for _, v := range uniqueDuplicates(clean.Violations) {
		if v.File == victim {
			wantDups = append(wantDups, v)
		}
	}
	if len(wantDups) == 0 {
		t.Fatalf("%s duplicates nothing in a clean run; the test is vacuous", victim)
	}

	faultinject.Set("core.check.config", faultinject.PanicOn("config check crashed", victim))
	opts := DefaultOptions()
	opts.Parallelism = 4
	seqOpts := DefaultOptions()
	seqOpts.Parallelism = 1
	parallel, err := MustNew(opts).Check(lr.Set, test, nil)
	if err != nil {
		t.Fatalf("lenient parallel check = %v, want containment", err)
	}
	sequential, err := MustNew(seqOpts).Check(lr.Set, test, nil)
	if err != nil {
		t.Fatalf("lenient sequential check = %v, want containment", err)
	}
	var gotDups []contracts.Violation
	for _, v := range uniqueDuplicates(parallel.Violations) {
		if v.File == victim {
			gotDups = append(gotDups, v)
		}
	}
	if !reflect.DeepEqual(gotDups, wantDups) {
		t.Errorf("victim's Unique duplicates = %+v, want %+v", gotDups, wantDups)
	}
	if !reflect.DeepEqual(parallel.Violations, sequential.Violations) {
		t.Errorf("parallel violations differ from sequential:\n got %+v\nwant %+v", parallel.Violations, sequential.Violations)
	}
	stripStack := func(ds []diag.Diagnostic) []diag.Diagnostic {
		out := append([]diag.Diagnostic(nil), ds...)
		for i := range out {
			out[i].Stack = ""
		}
		return out
	}
	if got, want := stripStack(parallel.Diagnostics), stripStack(sequential.Diagnostics); len(got) != 1 || !reflect.DeepEqual(got, want) {
		t.Errorf("parallel diagnostics = %+v, want the sequential run's %+v", got, want)
	}

	opts.Strict, seqOpts.Strict = true, true
	_, perr := MustNew(opts).Check(lr.Set, test, nil)
	_, serr := MustNew(seqOpts).Check(lr.Set, test, nil)
	if perr == nil || serr == nil {
		t.Fatalf("strict checks = %v / %v, want both to abort", perr, serr)
	}
	if perr.Error() != serr.Error() || !strings.Contains(perr.Error(), "config check crashed") {
		t.Errorf("strict parallel error %q, want the sequential run's %q", perr, serr)
	}
}
