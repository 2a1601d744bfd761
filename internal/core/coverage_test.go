package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"concord/internal/contracts"
	"concord/internal/lexer"
)

// TestCoverageDeletionOracle checks the analytic coverage (§3.9)
// against its definition: for one configuration of each of E1, E2, W2
// and W4, every non-metadata line is deleted from the source in turn,
// the configuration is re-processed and re-checked with one compiled
// checker, and the deletion counts as violating when some contract's
// violation count rises over the unmutated configuration's. Leaf lines
// must agree with Coverage in both directions. Block headers may not:
// deleting one reparents its children (see contracts.Checker.Coverage),
// so their disagreements are bounded by the counts measured when this
// oracle landed, per direction.
func TestCoverageDeletionOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("re-checks every line of four configurations; skipped in -short mode")
	}
	// Header disagreements: covered but harmless to delete, and
	// uncovered but violating when deleted.
	bounds := map[string][2]int{"E1": {3, 1}, "E2": {3, 2}, "W2": {0, 7}, "W4": {0, 0}}
	for _, name := range []string{"E1", "E2", "W2", "W4"} {
		t.Run(name, func(t *testing.T) {
			srcs, meta, _ := edgeSources(t, name, 0.25)
			eng := MustNew(DefaultOptions())
			lr, err := eng.Learn(srcs[:min(len(srcs), 16)], meta)
			if err != nil {
				t.Fatal(err)
			}
			ch := contracts.NewChecker(lr.Set)
			counts := func(cfg *lexer.Config) map[string]int {
				m := make(map[string]int)
				for _, v := range ch.Check(cfg) {
					m[v.ContractID]++
				}
				return m
			}
			cfgs, _ := eng.Process(srcs[:1], meta)
			cfg := cfgs[0]
			base := counts(cfg)
			cov := ch.Coverage(cfg)
			raw := strings.Split(string(srcs[0].Text), "\n")
			// Process the deletions in batches, so each batch shares one
			// run's lexer cache.
			var lines []int
			var muts []Source
			for li := range cfg.Lines {
				line := &cfg.Lines[li]
				if line.Meta {
					if cov.Covered[li] {
						t.Errorf("metadata line %d marked covered", li)
					}
					continue
				}
				text := strings.Join(append(append([]string(nil), raw[:line.Num-1]...), raw[line.Num:]...), "\n")
				lines = append(lines, li)
				muts = append(muts, Source{Name: fmt.Sprintf("del%d", li), Text: []byte(text)})
			}
			var mcfgs []*lexer.Config
			for lo := 0; lo < len(muts); lo += 64 {
				batch, _ := eng.Process(muts[lo:min(lo+64, len(muts))], meta)
				mcfgs = append(mcfgs, batch...)
			}
			if len(mcfgs) != len(muts) {
				t.Fatalf("%d of %d deletions processed", len(mcfgs), len(muts))
			}
			var leaves, headers, violating, harmless, uncovered int
			for k, li := range lines {
				line := &cfg.Lines[li]
				breaks := false
				for id, n := range counts(mcfgs[k]) {
					if n > base[id] {
						breaks = true
						break
					}
				}
				if breaks {
					violating++
				}
				header := li+1 < len(cfg.Lines) && strings.HasPrefix(cfg.Lines[li+1].Pattern, line.Pattern+"/")
				if !header {
					leaves++
					if breaks != cov.Covered[li] {
						t.Errorf("leaf line %d (%q): covered=%v, deleting it violates=%v", line.Num, line.Raw, cov.Covered[li], breaks)
					}
					continue
				}
				headers++
				switch {
				case cov.Covered[li] && !breaks:
					harmless++
				case !cov.Covered[li] && breaks:
					uncovered++
				}
			}
			t.Logf("%s under %d contracts: %d leaf lines, %d headers (%d covered but harmless, %d uncovered but violating), %d covered, %d violating deletions",
				cfg.Name, lr.Set.Len(), leaves, headers, harmless, uncovered, len(cov.Covered), violating)
			if len(cov.Covered) == 0 || violating == 0 {
				t.Fatalf("%d covered lines, %d violating deletions; the comparison is vacuous", len(cov.Covered), violating)
			}
			if b := bounds[name]; harmless > b[0] || uncovered > b[1] {
				t.Errorf("header disagreements %d covered-but-harmless, %d uncovered-but-violating; bound %d, %d",
					harmless, uncovered, b[0], b[1])
			}
		})
	}
}

// TestCoverageExcludesMeta ensures metadata lines never count toward
// coverage numerators or denominators.
func TestCoverageExcludesMeta(t *testing.T) {
	srcs, meta, _ := edgeSources(t, "E1", 0.5)
	eng := MustNew(DefaultOptions())
	lr, err := eng.Learn(srcs, meta)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := eng.Check(lr.Set, srcs[:1], meta)
	if err != nil {
		t.Fatal(err)
	}
	cfgs, _ := eng.Process(srcs[:1], meta)
	nonMeta := 0
	for _, l := range cfgs[0].Lines {
		if !l.Meta {
			nonMeta++
		}
	}
	if cr.Coverage.TotalLines > nonMeta {
		t.Errorf("coverage denominator %d exceeds non-meta lines %d",
			cr.Coverage.TotalLines, nonMeta)
	}
	if cr.Coverage.CoveredLines > cr.Coverage.TotalLines {
		t.Errorf("covered %d > total %d", cr.Coverage.CoveredLines, cr.Coverage.TotalLines)
	}
}

// TestRobustnessOnHostileInputs feeds the full pipeline degenerate
// inputs: empty files, binary junk, enormous single lines, deeply nested
// indentation, and malformed JSON. Nothing may panic and results must be
// well-formed.
func TestRobustnessOnHostileInputs(t *testing.T) {
	hostile := []Source{
		{Name: "empty", Text: nil},
		{Name: "blank", Text: []byte("\n\n\n  \n\t\n")},
		{Name: "binary", Text: []byte{0x00, 0xff, 0x1b, 0x07, '\n', 'a', '\n'}},
		{Name: "longline", Text: []byte(strings.Repeat("10.0.0.1 ", 5000) + "\n")},
		{Name: "deep", Text: []byte(deepIndent(200))},
		{Name: "badjson", Text: []byte(`{"a": [1, 2, {"b": }`)},
		{Name: "unicode", Text: []byte("héllo wörld 10.0.0.1\n‮10.0.0.2\n")},
	}
	eng := MustNew(DefaultOptions())
	lr, err := eng.Learn(hostile, hostile)
	if err != nil {
		t.Fatalf("Learn on hostile inputs: %v", err)
	}
	if _, err := eng.Check(lr.Set, hostile, hostile); err != nil {
		t.Fatalf("Check on hostile inputs: %v", err)
	}
}

func deepIndent(depth int) string {
	var sb strings.Builder
	for i := 0; i < depth; i++ {
		sb.WriteString(strings.Repeat(" ", i))
		sb.WriteString("level\n")
	}
	return sb.String()
}

// TestCoverageLines exercises the per-line coverage API.
func TestCoverageLines(t *testing.T) {
	srcs, meta, _ := edgeSources(t, "E1", 0.5)
	eng := MustNew(DefaultOptions())
	lr, err := eng.Learn(srcs, meta)
	if err != nil {
		t.Fatal(err)
	}
	lines, err := eng.CoverageLines(lr.Set, srcs[:2], meta)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("no lines")
	}
	covered := 0
	for _, lc := range lines {
		if lc.File == "" || lc.Line <= 0 {
			t.Fatalf("malformed entry: %+v", lc)
		}
		if lc.Covered {
			covered++
			if len(lc.Categories) == 0 {
				t.Errorf("covered line without categories: %+v", lc)
			}
		} else if len(lc.Categories) != 0 {
			t.Errorf("uncovered line with categories: %+v", lc)
		}
	}
	if covered == 0 {
		t.Error("nothing covered")
	}
	// Line numbers are ascending within each file.
	prevFile, prevLine := "", 0
	for _, lc := range lines {
		if lc.File == prevFile && lc.Line < prevLine {
			t.Fatalf("line order broken at %+v", lc)
		}
		prevFile, prevLine = lc.File, lc.Line
	}

	// The Engine and a registry entry stream coverage through one front:
	// over the whole corpus they return identical lines, at any
	// parallelism.
	var ref []LineCoverage
	for _, par := range []int{1, 8} {
		opts := DefaultOptions()
		opts.Parallelism = par
		got, err := MustNew(opts).CoverageLines(lr.Set, srcs, meta)
		if err != nil {
			t.Fatal(err)
		}
		reg, err := NewEngineRegistry(opts, 0)
		if err != nil {
			t.Fatal(err)
		}
		en, err := reg.Acquire(context.Background(), lr.Set)
		if err != nil {
			t.Fatal(err)
		}
		resident, err := en.CoverageLinesContext(context.Background(), srcs, meta, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resident, got) {
			t.Fatalf("parallelism %d: registry coverage diverges from the engine's", par)
		}
		if ref == nil {
			ref = got
		} else if !reflect.DeepEqual(got, ref) {
			t.Fatalf("parallelism %d: coverage diverges from parallelism 1", par)
		}
	}
}
