package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"concord/internal/contracts"
	"concord/internal/synth"
)

// TestCheckAllDeterministic asserts byte-identical JSON output across
// repeated parallel runs: the worker pool and the compiled engine's
// map-ordered buckets must not leak scheduling order into the report
// (ties are broken by file, line, then contract ID). The stream from
// sources, sequential and parallel, must match the staged
// CheckProcessed over the same sources.
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
	// The stream rows check a prefix of the corpus, a third of the cost
	// under -race: processing is per source, so the prefix's processed
	// configurations are the staged corpus to compare with.
	if len(cfgs) != len(srcs) {
		t.Fatalf("%d of %d sources processed; the prefix would misalign", len(cfgs), len(srcs))
	}
	n := min(24, len(srcs))
	staged, err := MustNew(opts).CheckProcessed(lr.Set, cfgs[:n], pstats)
	if err != nil {
		t.Fatal(err)
	}
	want := marshal(staged)
	for _, parallelism := range []int{1, 8} {
		opts.Parallelism = parallelism
		cr, err := MustNew(opts).Check(lr.Set, srcs[:n], nil)
		if err != nil {
			t.Fatal(err)
		}
		if data := marshal(cr); !bytes.Equal(want, data) {
			t.Errorf("Check from sources at Parallelism %d differs from CheckProcessed (%d vs %d bytes)", parallelism, len(data), len(want))
		}
	}
}

// TestMetamorphicInvariance checks whole-pipeline metamorphic
// properties on four synth roles:
//
//   - Permuting the order of the configurations changes neither the
//     learned set nor, on a corpus with planted bugs, the violations and
//     coverage of a check. Unique violations are excluded: they name the
//     first site of a value as the witness by design, so they follow
//     corpus order.
//   - The learn fold's worker count (Parallelism) never changes the
//     learned set, whichever worker folds which configuration.
//   - On the edge roles (E1, E2; W4 is too costly under -race), renaming
//     every file in place changes neither the learned set nor, once the
//     names are mapped back, any violation or the coverage.
//   - On the edge roles, inserting empty lines changes neither the
//     learned set nor, once line numbers are mapped back, any violation
//     or the coverage.
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
			if role == "W4" || role == "W2" {
				return // the rename row below runs on the edge roles only
			}

			// Rename every file, reversing the names' sort order while
			// keeping corpus order: with names mapped back, the learned
			// set, every violation and the coverage must match. A device
			// copied under a second name plants Unique duplicates, whose
			// first-seen witness must follow corpus order, not names.
			rename := func(in []Source) ([]Source, *strings.Replacer) {
				out := make([]Source, len(in))
				var pairs []string
				for i, s := range in {
					out[i] = Source{Name: fmt.Sprintf("renamed-%03d%s", len(in)-i, filepath.Ext(s.Name)), Text: s.Text}
					pairs = append(pairs, out[i].Name, s.Name)
				}
				return out, strings.NewReplacer(pairs...)
			}
			renamedSrcs, _ := rename(srcs)
			if _, got := marshal(eng.Learn(renamedSrcs, meta)); !bytes.Equal(got, want) {
				t.Errorf("renamed corpus learned a different set (%d vs %d bytes)", len(got), len(want))
			}
			dupCorpus := append(append([]Source(nil), planted...), Source{Name: "copy-" + planted[1].Name, Text: planted[1].Text})
			checkAll := func(corpus []Source, names *strings.Replacer) []byte {
				cr, err := eng.Check(set, corpus, meta)
				if err != nil {
					t.Fatal(err)
				}
				dups := 0
				for i := range cr.Violations {
					v := &cr.Violations[i]
					v.File, v.Detail = names.Replace(v.File), names.Replace(v.Detail)
					if strings.Contains(v.Detail, "duplicates") {
						dups++
					}
				}
				if dups == 0 {
					t.Fatal("no Unique duplicates; the rename row is vacuous")
				}
				contracts.SortViolations(cr.Violations)
				for i := range cr.Coverage.PerConfig {
					cr.Coverage.PerConfig[i].Name = names.Replace(cr.Coverage.PerConfig[i].Name)
				}
				data, err := json.Marshal(struct {
					Violations []contracts.Violation `json:"violations"`
					Coverage   CoverageSummary       `json:"coverage"`
					Stats      ProcessStats          `json:"stats"`
				}{cr.Violations, cr.Coverage, cr.Stats})
				if err != nil {
					t.Fatal(err)
				}
				return data
			}
			renamed, unname := rename(dupCorpus)
			if got, want := checkAll(renamed, unname), checkAll(dupCorpus, strings.NewReplacer()); !bytes.Equal(got, want) {
				t.Errorf("renamed corpus checks differently once names are mapped back (%d vs %d bytes)", len(got), len(want))
			}

			// Insert an empty line before every configuration's first line
			// and after every third line: the learned set must not change,
			// and once every configuration line number (violation lines and
			// the file:line witnesses of Unique duplicates) is mapped back
			// to the original file, neither must any violation or the
			// coverage. A violation on a metadata line (its contract's
			// first pattern is an @meta one) carries that line's number in
			// the unchanged metadata document, so it keeps its number.
			blanked, toOrig := insertBlankLines(dupCorpus)
			blankSrcs, _ := insertBlankLines(srcs)
			if _, got := marshal(eng.Learn(blankSrcs, meta)); !bytes.Equal(got, want) {
				t.Errorf("corpus with blank lines learned a different set (%d vs %d bytes)", len(got), len(want))
			}
			unblank := func(cr *CheckResult) {
				for i := range cr.Violations {
					v := &cr.Violations[i]
					if v.Line > 0 && !metaViolation(v) {
						v.Line = toOrig(v.File, v.Line)
					}
					v.Detail = witnessLine.ReplaceAllStringFunc(v.Detail, func(w string) string {
						m := witnessLine.FindStringSubmatch(w)
						n, _ := strconv.Atoi(m[2])
						return fmt.Sprintf(" %s:%d", m[1], toOrig(m[1], n))
					})
				}
			}
			if got, want := checkMapped(t, eng, set, blanked, meta, unblank), checkMapped(t, eng, set, dupCorpus, meta, nil); !bytes.Equal(got, want) {
				t.Errorf("corpus with blank lines checks differently once lines are mapped back:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// witnessLine matches the file:line witness a Unique violation's
// detail names ("value X duplicates FILE:LINE").
var witnessLine = regexp.MustCompile(` (\S+):(\d+)$`)

// metaViolation reports whether v sits on a metadata line: the first
// pattern of its contract ID, the one a violation is reported at, is
// an @meta pattern.
func metaViolation(v *contracts.Violation) bool {
	parts := strings.SplitN(v.ContractID, "|", 3)
	return len(parts) > 1 && strings.HasPrefix(parts[1], "@meta")
}

// insertBlankLines returns a copy of corpus with an empty line before
// each configuration's first line and after every third line, and a
// mapper from a line number of the copy back to the original file's
// line (0 for an inserted line). A last line without a newline gains
// one before its blank line.
func insertBlankLines(corpus []Source) ([]Source, func(file string, line int) int) {
	out := make([]Source, len(corpus))
	orig := make(map[string][]int, len(corpus))
	for i, s := range corpus {
		var b strings.Builder
		lines := []int{0, 0} // 1-based: index 0 unused, line 1 blank
		b.WriteString("\n")
		for j, l := range strings.SplitAfter(string(s.Text), "\n") {
			if l == "" {
				continue
			}
			b.WriteString(l)
			lines = append(lines, j+1)
			if j%3 == 2 {
				if !strings.HasSuffix(l, "\n") {
					b.WriteString("\n")
				}
				b.WriteString("\n")
				lines = append(lines, 0)
			}
		}
		out[i] = Source{Name: s.Name, Text: []byte(b.String())}
		orig[s.Name] = lines
	}
	return out, func(file string, line int) int {
		if lines := orig[file]; line < len(lines) {
			return lines[line]
		}
		return -line
	}
}

// checkMapped checks corpus, rewrites the result with mapBack (nil
// leaves it as is), and renders the violations in canonical order, the
// coverage with its per-config rows by name, and the corpus statistics.
func checkMapped(t *testing.T, eng *Engine, set *contracts.Set, corpus, meta []Source, mapBack func(*CheckResult)) []byte {
	t.Helper()
	cr, err := eng.Check(set, corpus, meta)
	if err != nil {
		t.Fatal(err)
	}
	if len(cr.Violations) == 0 {
		t.Fatal("no violations; the comparison is vacuous")
	}
	if mapBack != nil {
		mapBack(cr)
	}
	contracts.SortViolations(cr.Violations)
	sort.Slice(cr.Coverage.PerConfig, func(i, j int) bool { return cr.Coverage.PerConfig[i].Name < cr.Coverage.PerConfig[j].Name })
	data, err := json.MarshalIndent(struct {
		Violations []contracts.Violation `json:"violations"`
		Coverage   CoverageSummary       `json:"coverage"`
		Stats      ProcessStats          `json:"stats"`
	}{cr.Violations, cr.Coverage, cr.Stats}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDiagnosticsDeterministicOrder: a run reports its diagnostics in
// one canonical order, whichever worker, shard, or process recorded
// them first — so check and learn results, diagnostics included, are
// byte-identical across repeated parallel runs, a sequential run, and
// an engine selecting the process backend (which checks in worker
// processes and learns in this one). Every configuration of the corpus has lines past the
// 18-byte limit, so each one contributes a truncation diagnostic.
func TestDiagnosticsDeterministicOrder(t *testing.T) {
	lr, err := MustNew(DefaultOptions()).Learn(chaosSources(20), nil)
	if err != nil {
		t.Fatal(err)
	}
	corpus := shardCorpus(24)
	truncate := func(o *Options) {
		o.Limits.MaxLineLen = 18
		o.Parallelism = 8
	}
	opts := DefaultOptions()
	truncate(&opts)
	sequential := opts
	sequential.Parallelism = 1
	rows := []struct {
		name string
		eng  func() *Engine
	}{
		{"unsharded", func() *Engine { return MustNew(opts) }},
		{"unsharded again", func() *Engine { return MustNew(opts) }},
		{"Parallelism 1", func() *Engine { return MustNew(sequential) }},
		{"3 process shards", func() *Engine { return distEngine(t, 3, 2, truncate) }},
	}
	var wantCheck, wantLearn string
	for i, row := range rows {
		eng := row.eng()
		cr, err := eng.Check(lr.Set, corpus, nil)
		if err != nil {
			t.Fatalf("%s: check: %v", row.name, err)
		}
		learned, err := eng.Learn(corpus, nil)
		if err != nil {
			t.Fatalf("%s: learn: %v", row.name, err)
		}
		learnOut, err := json.MarshalIndent(learned, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		gotCheck, gotLearn := checkJSON(t, cr), string(learnOut)
		if i == 0 {
			if len(cr.Diagnostics) < len(corpus) || len(learned.Diagnostics) < len(corpus) {
				t.Fatalf("%d check and %d learn diagnostics, want at least %d each: the corpus does not exercise the ordering",
					len(cr.Diagnostics), len(learned.Diagnostics), len(corpus))
			}
			wantCheck, wantLearn = gotCheck, gotLearn
			continue
		}
		if gotCheck != wantCheck {
			t.Errorf("%s: check result diverges from %s:\n got %s\nwant %s", row.name, rows[0].name, gotCheck, wantCheck)
		}
		if gotLearn != wantLearn {
			t.Errorf("%s: learn result diverges from %s:\n got %s\nwant %s", row.name, rows[0].name, gotLearn, wantLearn)
		}
	}
}
