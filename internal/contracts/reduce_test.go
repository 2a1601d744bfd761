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

// reduceCorpus builds a corpus with duplicates planted across distant
// configurations, so any shard split separates a witness from its
// duplicates.
func reduceCorpus(t *testing.T, n int) []*lexer.Config {
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

func reduceSet() *Set {
	return &Set{Contracts: []Contract{
		&Unique{Pattern: "/hostname r[num]", Display: "/hostname r[a:num]", ParamIdx: 0},
		&Unique{Pattern: "/router-id [ip4]", Display: "/router-id [a:ip4]", ParamIdx: 0},
	}}
}

// reduceSites reduces per-configuration site maps, in order, through
// ReduceUnique.
func reduceSites(ch *Checker, names []string, sites []map[string][]UniqueSite) []Violation {
	return ch.ReduceUnique(len(names), func(i int) (string, map[string][]UniqueSite) { return names[i], sites[i] })
}

// TestReduceUniqueMatchesAcross asserts that for any contiguous shard
// split, extracting each shard's sites separately and reducing their
// concatenation in shard order yields exactly the violations of a
// direct CheckUniqueAcross over the whole corpus.
func TestReduceUniqueMatchesAcross(t *testing.T) {
	ch := NewChecker(reduceSet())
	cfgs := reduceCorpus(t, 20)
	want := ch.CheckUniqueAcross(cfgs)
	if len(want) == 0 {
		t.Fatal("corpus planted no duplicates; the test is vacuous")
	}
	for _, shards := range []int{1, 2, 3, 7, 20} {
		var names []string
		var sites []map[string][]UniqueSite
		per := (len(cfgs) + shards - 1) / shards
		for lo := 0; lo < len(cfgs); lo += per {
			for _, cfg := range cfgs[lo:min(lo+per, len(cfgs))] {
				names = append(names, cfg.Name)
				sites = append(sites, ch.UniqueContributions(cfg))
			}
		}
		if got := reduceSites(ch, names, sites); !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: ReduceUnique = %+v, want %+v", shards, got, want)
		}
	}
}

// TestReduceUniquePanicContained asserts ReduceUnique contains a
// panicking unique contract exactly as the direct scan does: lenient
// skips it with a diagnostic, the other contract still reduces.
func TestReduceUniquePanicContained(t *testing.T) {
	defer faultinject.Reset()
	set := reduceSet()
	bad := set.Contracts[1]
	faultinject.Set("contracts.check.unique_global", faultinject.PanicOn("boom", bad.ID()))

	dc := diag.New()
	ch := NewChecker(set, WithDiagnostics(dc))
	var names []string
	var sites []map[string][]UniqueSite
	for _, name := range []string{"r1.cfg", "r2.cfg"} {
		names = append(names, name)
		sites = append(sites, ch.UniqueContributions(cfgFromText(t, name, "hostname r9\nrouter-id 10.0.0.1\n")))
	}
	vs := reduceSites(ch, names, sites)
	if len(vs) != 1 || !strings.Contains(vs[0].Detail, "duplicates r1.cfg") {
		t.Errorf("violations = %+v, want only the hostname duplicate", vs)
	}
	if dc.Len() != 1 || !strings.Contains(dc.All()[0].Message, bad.ID()) {
		t.Errorf("diagnostics = %+v, want one for the skipped contract", dc.All())
	}
}

// TestReduceUniqueDuplicateContracts: a set that lists one Unique
// contract twice (an overlay repeating a base contract) keeps one site
// list per contract ID, so the reduce reports each duplicate value once
// per contract, as the CheckUniqueAcross walk does, and never a value
// duplicating itself.
func TestReduceUniqueDuplicateContracts(t *testing.T) {
	set := reduceSet()
	set.Contracts = append(set.Contracts, set.Contracts[1])
	ch := NewChecker(set)
	cfgs := reduceCorpus(t, 10)
	var names []string
	var sites []map[string][]UniqueSite
	for _, cfg := range cfgs {
		names = append(names, cfg.Name)
		sites = append(sites, ch.UniqueContributions(cfg))
	}
	want := ch.CheckUniqueAcross(cfgs)
	if len(want) == 0 {
		t.Fatal("corpus planted no duplicates; the test is vacuous")
	}
	if got := reduceSites(ch, names, sites); !reflect.DeepEqual(got, want) {
		t.Errorf("ReduceUnique = %+v, want %+v", got, want)
	}
}
