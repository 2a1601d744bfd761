package contracts_test

import (
	"context"
	"runtime"
	"testing"

	"concord/internal/contracts"
	"concord/internal/core"
	"concord/internal/lexer"
	"concord/internal/synth"
)

// checkSink keeps the benchmarked calls' results live.
var checkSink contracts.ConfigCheck

// BenchmarkCheckConfig times the checker's one pass per configuration
// (violations, coverage and Unique sites) over engine-processed E2 and
// W4 configurations at scale 0.25, with contracts learned from the first
// 16, and reports ns/config and allocs/config.
func BenchmarkCheckConfig(b *testing.B) {
	for _, name := range []string{"E2", "W4"} {
		b.Run(name, func(b *testing.B) {
			role, ok := synth.RoleByName(name, 0.25)
			if !ok {
				b.Fatalf("unknown synth role %s", name)
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
				b.Fatal(err)
			}
			lr, err := eng.LearnProcessed(cfgs[:min(len(cfgs), 16)], pstats)
			if err != nil {
				b.Fatal(err)
			}
			ch := contracts.NewChecker(lr.Set, contracts.WithInterns(lexer.CommonInterns(cfgs)))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, cfg := range cfgs {
					checkSink = ch.CheckConfig(cfg)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(b.N * len(cfgs))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/config")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/config")
		})
	}
}
