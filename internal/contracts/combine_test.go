package contracts

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"concord/internal/diag"
	"concord/internal/faultinject"
	"concord/internal/lexer"
)

// combineCorpus builds a corpus with duplicates planted across distant
// configurations, so any shard split separates a witness from its
// duplicates.
func combineCorpus(t *testing.T, n int) []*lexer.Config {
	t.Helper()
	cfgs := make([]*lexer.Config, n)
	for i := 0; i < n; i++ {
		host := fmt.Sprintf("r%02d", i)
		lb := fmt.Sprintf("10.0.%d.1", i)
		if i%5 == 4 {
			// Every fifth device reuses an earlier loopback.
			lb = fmt.Sprintf("10.0.%d.1", i/5)
		}
		text := fmt.Sprintf("hostname %s\nrouter-id %s\n", host, lb)
		cfgs[i] = cfgFromText(t, host+".cfg", text)
	}
	return cfgs
}

func combineSet() *Set {
	return &Set{Contracts: []Contract{
		&Unique{Pattern: "/hostname r[num]", Display: "/hostname r[a:num]", ParamIdx: 0},
		&Unique{Pattern: "/router-id [ip4]", Display: "/router-id [a:ip4]", ParamIdx: 0},
	}}
}

// TestUniqueCombinerMatchesAcross asserts that for any contiguous
// shard split, reducing per-shard accumulators yields exactly the
// violations of a direct CheckUniqueAcross over the whole corpus.
func TestUniqueCombinerMatchesAcross(t *testing.T) {
	ch := NewChecker(combineSet())
	cfgs := combineCorpus(t, 20)
	want := ch.CheckUniqueAcross(cfgs)
	if len(want) == 0 {
		t.Fatal("corpus planted no duplicates; the test is vacuous")
	}
	for _, shards := range []int{1, 2, 3, 7, 20} {
		c := ch.UniqueCombiner()
		var accs []*UniqueAccumulator
		per := (len(cfgs) + shards - 1) / shards
		for lo := 0; lo < len(cfgs); lo += per {
			hi := lo + per
			if hi > len(cfgs) {
				hi = len(cfgs)
			}
			acc := c.NewAccumulator()
			for _, cfg := range cfgs[lo:hi] {
				acc.Add(cfg)
			}
			accs = append(accs, acc)
		}
		got := c.Reduce(accs)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: Reduce = %+v, want %+v", shards, got, want)
		}
	}
}

// TestUniqueCombinerSitesReplay asserts AddSites over pre-extracted
// contributions (the incremental artifact-replay path) is equivalent
// to folding the lexed configurations directly.
func TestUniqueCombinerSitesReplay(t *testing.T) {
	ch := NewChecker(combineSet())
	cfgs := combineCorpus(t, 12)
	c := ch.UniqueCombiner()

	direct := c.NewAccumulator()
	replay := c.NewAccumulator()
	for _, cfg := range cfgs {
		direct.Add(cfg)
		replay.AddSites(cfg.Name, ch.UniqueContributions(cfg))
	}
	if replay.Len() != len(cfgs) {
		t.Fatalf("replay.Len = %d, want %d", replay.Len(), len(cfgs))
	}
	got := c.Reduce([]*UniqueAccumulator{replay})
	want := c.Reduce([]*UniqueAccumulator{direct})
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("replayed reduce = %+v, want non-empty %+v", got, want)
	}
}

// TestUniqueCombinerPanicContained asserts Reduce contains a panicking
// unique contract exactly as the direct scan does: lenient skips it
// with a diagnostic, the other contract still reduces.
func TestUniqueCombinerPanicContained(t *testing.T) {
	defer faultinject.Reset()
	set := combineSet()
	bad := set.Contracts[1]
	faultinject.Set("contracts.check.unique_global", faultinject.PanicOn("boom", bad.ID()))

	dc := diag.New()
	ch := NewChecker(set, WithDiagnostics(dc))
	c := ch.UniqueCombiner()
	acc := c.NewAccumulator()
	acc.Add(cfgFromText(t, "r1.cfg", "hostname r9\nrouter-id 10.0.0.1\n"))
	acc.Add(cfgFromText(t, "r2.cfg", "hostname r9\nrouter-id 10.0.0.1\n"))
	vs := c.Reduce([]*UniqueAccumulator{acc})
	if len(vs) != 1 || !strings.Contains(vs[0].Detail, "duplicates r1.cfg") {
		t.Errorf("violations = %+v, want only the hostname duplicate", vs)
	}
	if dc.Len() != 1 || !strings.Contains(dc.All()[0].Message, bad.ID()) {
		t.Errorf("diagnostics = %+v, want one for the skipped contract", dc.All())
	}
}
