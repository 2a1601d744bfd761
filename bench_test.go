package concord

// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5), plus micro-benchmarks of the core pipeline stages.
// Each experiment bench builds a fresh harness runner so the measured
// work includes dataset generation, learning, and checking.
//
// Dataset sizes scale with CONCORD_BENCH_SCALE (default 0.1); run the
// full evaluation with cmd/concord-experiments -scale 1.0 instead of
// cranking the benchmarks.

import (
	"context"
	"io"
	"os"
	"strconv"
	"testing"
	"time"

	"concord/internal/contracts"
	"concord/internal/core"
	"concord/internal/format"
	"concord/internal/harness"
	"concord/internal/lexer"
	"concord/internal/minimize"
	"concord/internal/mining"
	"concord/internal/synth"
	"concord/internal/telemetry"
)

// benchScale reads the dataset scale for benchmarks.
func benchScale() float64 {
	if s := os.Getenv("CONCORD_BENCH_SCALE"); s != "" {
		if f, err := strconv.ParseFloat(s, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.1
}

// benchExperiment times a harness experiment end to end.
func benchExperiment(b *testing.B, f func(r *harness.Runner) error) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(benchScale())
		if err := f(r); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRoles keeps the per-iteration role set small; the experiments CLI
// covers all ten roles.
var benchRoles = []string{"E1", "E2", "W8"}

func BenchmarkTable3_DatasetOverview(b *testing.B) {
	benchExperiment(b, func(r *harness.Runner) error {
		return r.Table3(io.Discard, benchRoles)
	})
}

func BenchmarkFigure6_Scaling(b *testing.B) {
	benchExperiment(b, func(r *harness.Runner) error {
		_, err := r.Figure6(io.Discard, "E2", 4)
		return err
	})
}

func BenchmarkTable4_ContractsAndCoverage(b *testing.B) {
	benchExperiment(b, func(r *harness.Runner) error {
		return r.Table4(io.Discard, benchRoles)
	})
}

func BenchmarkTable5_CoverageByCategory(b *testing.B) {
	benchExperiment(b, func(r *harness.Runner) error {
		return r.Table5(io.Discard, benchRoles)
	})
}

func BenchmarkFigure7_Ablation(b *testing.B) {
	benchExperiment(b, func(r *harness.Runner) error {
		_, err := r.Figure7(io.Discard, []string{"E1", "W8"})
		return err
	})
}

func BenchmarkFigure8_Minimization(b *testing.B) {
	benchExperiment(b, func(r *harness.Runner) error {
		_, err := r.Figure8(io.Discard, benchRoles)
		return err
	})
}

func BenchmarkTable6_SampleSizes(b *testing.B) {
	benchExperiment(b, func(r *harness.Runner) error {
		_, err := r.Table6(io.Discard)
		return err
	})
}

func BenchmarkFigure9_ScoreCDF(b *testing.B) {
	benchExperiment(b, func(r *harness.Runner) error {
		_, err := r.Figure9(io.Discard)
		return err
	})
}

func BenchmarkTable7_Precision(b *testing.B) {
	benchExperiment(b, func(r *harness.Runner) error {
		_, err := r.Table7(io.Discard)
		return err
	})
}

func BenchmarkTable8_Examples(b *testing.B) {
	benchExperiment(b, func(r *harness.Runner) error {
		return r.Table8(io.Discard, 5)
	})
}

// BenchmarkOpt_BruteForceVsIndexed is the §5.2 ablation: indexed vs.
// naive relational mining on the same corpus. The slowdown factor is
// reported as a custom metric; at realistic sizes the brute force does
// not terminate (run cmd/concord-experiments -experiment optimization).
func BenchmarkOpt_BruteForceVsIndexed(b *testing.B) {
	role, _ := synth.RoleByName("E1", 0.5)
	ds := synth.Generate(role)
	var srcs []core.Source
	for _, f := range ds.Configs {
		srcs = append(srcs, core.Source{Name: f.Name, Text: f.Text})
	}
	eng := core.MustNew(core.DefaultOptions())
	cfgs, _ := eng.Process(srcs, nil)
	m := mining.New(mining.Options{
		Categories: map[contracts.Category]bool{contracts.CatRelation: true},
	})
	var indexed, brute time.Duration
	for i := 0; i < b.N; i++ {
		start := time.Now()
		m.Mine(cfgs)
		indexed += time.Since(start)
		start = time.Now()
		if _, err := m.MineRelationalBruteForce(context.Background(), cfgs); err != nil {
			b.Fatal(err)
		}
		brute += time.Since(start)
	}
	if indexed > 0 {
		b.ReportMetric(brute.Seconds()/indexed.Seconds(), "brute/indexed")
	}
}

func BenchmarkIncidentReplays(b *testing.B) {
	benchExperiment(b, func(r *harness.Runner) error {
		_, err := r.Incidents(io.Discard)
		return err
	})
}

// --- micro-benchmarks of the pipeline stages ---

func benchCorpus(b *testing.B, roleName string) ([]core.Source, []core.Source) {
	b.Helper()
	role, ok := synth.RoleByName(roleName, benchScale())
	if !ok {
		b.Fatalf("role %s", roleName)
	}
	ds := synth.Generate(role)
	var srcs, meta []core.Source
	for _, f := range ds.Configs {
		srcs = append(srcs, core.Source{Name: f.Name, Text: f.Text})
	}
	for _, f := range ds.Meta {
		meta = append(meta, core.Source{Name: f.Name, Text: f.Text})
	}
	return srcs, meta
}

// benchmarkLearn times Engine.Learn and reports, per op, the relational
// candidates left after the fold's dead-candidate prune
// (mine.relation.candidates), which depends on how the workers split
// the corpus when GOMAXPROCS > 1.
func benchmarkLearn(b *testing.B, roleName string) {
	srcs, meta := benchCorpus(b, roleName)
	opts := core.DefaultOptions()
	opts.Telemetry = telemetry.NewRecorder()
	opts.Telemetry.SetSpanLimit(1) // only a counter is read; keep spans from piling up over b.N runs
	eng := core.MustNew(opts)
	lines := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lr, err := eng.Learn(srcs, meta)
		if err != nil {
			b.Fatal(err)
		}
		lines = lr.Stats.Lines
	}
	b.ReportMetric(float64(lines), "lines")
	b.ReportMetric(float64(opts.Telemetry.Counter("mine.relation.candidates"))/float64(b.N), "candidates")
}

func BenchmarkLearn_EdgeIndent(b *testing.B) { benchmarkLearn(b, "E2") }
func BenchmarkLearn_WANIndent(b *testing.B)  { benchmarkLearn(b, "W1") }
func BenchmarkLearn_WANFlat(b *testing.B)    { benchmarkLearn(b, "W8") }

func benchmarkCheck(b *testing.B, roleName string) {
	srcs, meta := benchCorpus(b, roleName)
	eng := core.MustNew(core.DefaultOptions())
	lr, err := eng.Learn(srcs, meta)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Check(lr.Set, srcs, meta); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheck_EdgeIndent(b *testing.B) { benchmarkCheck(b, "E2") }
func BenchmarkCheck_WANFlat(b *testing.B)    { benchmarkCheck(b, "W8") }

func BenchmarkLexLine(b *testing.B) {
	lx := lexer.MustNew()
	lines := []string{
		"ip address 10.14.14.34",
		"seq 10 permit 10.14.14.34/32",
		"route-target import 00:00:0c:d3:00:6e",
		"rd 10.14.14.117:10251",
		"maximum-paths 64 ecmp 64",
		"evpn ether-segment",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lx.Lex(lines[i%len(lines)])
	}
}

func BenchmarkContextEmbedding(b *testing.B) {
	role, _ := synth.RoleByName("E1", 0.5)
	text := synth.Generate(role).Configs[0].Text
	lx := lexer.MustNew()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		format.Process("bench", text, lx, format.Options{Embed: true})
	}
}

func BenchmarkApriori_Baseline(b *testing.B) {
	srcs, meta := benchCorpus(b, "E1")
	eng := core.MustNew(core.DefaultOptions())
	cfgs, _ := eng.Process(srcs, meta)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mining.Apriori(cfgs, mining.AprioriOptions{MinSupport: 0.9, MinConfidence: 0.9, MaxSetSize: 2})
	}
}

// BenchmarkMinimization isolates §3.6 on a quadratic equality clique.
func BenchmarkMinimization(b *testing.B) {
	srcs, meta := benchCorpus(b, "E2")
	opts := core.DefaultOptions()
	opts.Minimize = false
	eng := core.MustNew(opts)
	lr, err := eng.Learn(srcs, meta)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := &contracts.Set{Contracts: append([]contracts.Contract{}, lr.Set.Contracts...)}
		if out, _ := minimize.Set(set); out.Len() > set.Len() {
			b.Fatal("minimization grew the set")
		}
	}
}

// benchmarkCheckEngine times the compiled check hot path. Contracts
// are learned once from a subset so the timed loop measures checking
// only.
func benchmarkCheckEngine(b *testing.B, roleName string) {
	srcs, meta := benchCorpus(b, roleName)
	eng := core.MustNew(core.DefaultOptions())
	cfgs, pstats := eng.Process(srcs, meta)
	subset := cfgs
	if len(subset) > 40 {
		subset = subset[:40]
	}
	lr, err := eng.LearnProcessed(subset, pstats)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(cfgs)), "configs")
	b.ReportMetric(float64(lr.Set.Len()), "contracts")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.CheckProcessed(lr.Set, cfgs, pstats); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckCompiled_WANWide(b *testing.B) { benchmarkCheckEngine(b, "W4") }
func BenchmarkCheckCompiled_Edge(b *testing.B)    { benchmarkCheckEngine(b, "E2") }
