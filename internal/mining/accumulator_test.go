package mining

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"concord/internal/contracts"
	"concord/internal/format"
	"concord/internal/intern"
	"concord/internal/lexer"
	"concord/internal/relations"
)

// accCorpus renders figure-1-style devices lo+1..hi, optionally
// interned into tab — the shape the engine's learn stream hands to
// Fold.
func accCorpus(t *testing.T, lo, hi int, tab *intern.Table) []*lexer.Config {
	t.Helper()
	lx := lexer.MustNew()
	var cfgs []*lexer.Config
	for d := lo + 1; d <= hi; d++ {
		cfg := format.Process(fmt.Sprintf("dev%d", d), []byte(figure1Device(d)), lx,
			format.Options{Embed: true, Interns: tab})
		cfgs = append(cfgs, &cfg)
	}
	return cfgs
}

// foldAll streams cfgs into a fresh accumulator for a run of n
// configurations.
func foldAll(t *testing.T, m *Miner, tab *intern.Table, n int, cfgs []*lexer.Config) *StatsAccumulator {
	t.Helper()
	acc := m.NewStatsAccumulator(tab, n)
	for _, cfg := range cfgs {
		if err := acc.Fold(cfg); err != nil {
			t.Fatal(err)
		}
	}
	return acc
}

// mineJSON mines an accumulator and renders the learned set as JSON —
// the byte-identity currency of every merge-law assertion below.
func mineJSON(t *testing.T, m *Miner, acc *StatsAccumulator) string {
	t.Helper()
	set, err := m.MineAccumulated(context.Background(), acc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestAccumulatorMergeProperty is the merge-law property test behind
// the streaming learn's per-worker accumulators: for randomized
// contiguous corpus splits, merging the per-split accumulators under a
// random association and a random order mines a learned set byte-identical to folding the whole
// corpus into one accumulator, which in turn matches MineContext over
// the same corpus uninterned (folded into a fresh table).
func TestAccumulatorMergeProperty(t *testing.T) {
	const corpus = 24
	t.Run("interned", func(t *testing.T) {
		opts := DefaultOptions()
		opts.ConstantLearning = true
		tab := intern.NewTable()
		cfgs := accCorpus(t, 0, corpus, tab)
		m := New(opts)
		whole := foldAll(t, m, tab, corpus, cfgs)
		if whole.sti.nConfigs != corpus || whole.Candidates() == 0 {
			t.Fatalf("whole-corpus accumulator: %d configs, %d candidates; corpus does not exercise the relational fold",
				whole.sti.nConfigs, whole.Candidates())
		}
		want := mineJSON(t, m, whole)
		ref, err := m.MineContext(context.Background(), accCorpus(t, 0, corpus, nil))
		if err != nil {
			t.Fatal(err)
		}
		if b, _ := json.Marshal(ref); string(b) != want {
			t.Fatalf("shared-table fold diverges from the fresh-table MineContext:\n fold %s\n  ref %s", want, b)
		}

		rng := rand.New(rand.NewSource(41))
		for trial := 0; trial < 8; trial++ {
			// Random contiguous split into 1..8 parts (empty parts
			// included: cuts may coincide).
			k := 1 + rng.Intn(8)
			cuts := []int{0, corpus}
			for i := 1; i < k; i++ {
				cuts = append(cuts, rng.Intn(corpus+1))
			}
			sort.Ints(cuts)
			var accs []*StatsAccumulator
			for i := 0; i+1 < len(cuts); i++ {
				// Every split is built with the whole corpus's N, as the
				// engine's workers are, so the prune is live in each.
				accs = append(accs, foldAll(t, m, tab, corpus, cfgs[cuts[i]:cuts[i+1]]))
			}
			// Random association and order: repeatedly merge one random
			// accumulator into another until one remains.
			for len(accs) > 1 {
				i := rng.Intn(len(accs))
				j := rng.Intn(len(accs) - 1)
				if j >= i {
					j++
				}
				accs[i].Merge(accs[j])
				accs = append(accs[:j], accs[j+1:]...)
			}
			if accs[0].sti.nConfigs != corpus {
				t.Fatalf("trial %d (cuts %v): merged NConfigs = %d, want %d", trial, cuts, accs[0].sti.nConfigs, corpus)
			}
			if got := mineJSON(t, m, accs[0]); got != want {
				t.Fatalf("trial %d (cuts %v): merged learned set diverges from whole-corpus fold:\n got %s\nwant %s",
					trial, cuts, got, want)
			}
		}
	})
}

// TestMineContextTableRule pins which corpora the fold accepts: one
// shared intern table, or none at all (a fresh table is used). IDs from
// different tables are incomparable, so a corpus mixing tables, or
// carrying pattern IDs without their table, must error rather than
// mine from misbound evidence. The brute-force baseline follows the
// same rule.
func TestMineContextTableRule(t *testing.T) {
	m := New(DefaultOptions())
	shared := intern.NewTable()
	for _, tc := range []struct {
		name string
		cfgs []*lexer.Config
		want string
	}{
		{"shared", accCorpus(t, 0, 8, shared), ""},
		{"none", accCorpus(t, 0, 8, nil), ""},
		{"two tables", append(accCorpus(t, 0, 4, intern.NewTable()), accCorpus(t, 4, 8, intern.NewTable())...),
			"mixes intern tables"},
		{"table and none", append(accCorpus(t, 0, 4, shared), accCorpus(t, 4, 8, nil)...), "mixes intern tables"},
		{"ids without table", func() []*lexer.Config {
			cfgs := accCorpus(t, 0, 8, intern.NewTable())
			for i, cfg := range cfgs {
				c := *cfg
				c.Interns = nil
				cfgs[i] = &c
			}
			return cfgs
		}(), "pattern IDs without an intern table"},
	} {
		set, err := m.MineContext(context.Background(), tc.cfgs)
		_, bfErr := m.MineRelationalBruteForce(context.Background(), tc.cfgs)
		if tc.want == "" {
			if err != nil || bfErr != nil {
				t.Errorf("%s: MineContext err = %v, brute force err = %v, want both nil", tc.name, err, bfErr)
			} else if set.Len() == 0 {
				t.Errorf("%s: learned no contracts", tc.name)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: MineContext err = %v, want %q", tc.name, err, tc.want)
		}
		if bfErr == nil || !strings.Contains(bfErr.Error(), tc.want) {
			t.Errorf("%s: brute force err = %v, want %q", tc.name, bfErr, tc.want)
		}
	}
}

// ridCorpus renders n devices whose BGP router-id equals their loopback
// address, except the devices in miss, whose router-id shares no octet
// with any address. The relation "router-id equals ip address" then
// misses exactly len(miss) configurations.
func ridCorpus(t *testing.T, n int, miss map[int]bool, tab *intern.Table) []*lexer.Config {
	t.Helper()
	lx := lexer.MustNew()
	var cfgs []*lexer.Config
	for d := 1; d <= n; d++ {
		rid := fmt.Sprintf("10.14.%d.34", d)
		if miss[d] {
			rid = fmt.Sprintf("172.31.%d.%d", 200+d, 200+d)
		}
		text := fmt.Sprintf("interface Loopback0\n   ip address 10.14.%d.34\nrouter bgp 65000\n   router-id %s\n", d, rid)
		cfg := format.Process(fmt.Sprintf("dev%02d", d), []byte(text), lx, format.Options{Embed: true, Interns: tab})
		cfgs = append(cfgs, &cfg)
	}
	return cfgs
}

// hasRidCand reports whether acc's table holds the identity-transform
// candidate "router-id equals ip address".
func hasRidCand(acc *StatsAccumulator) bool {
	for k := range acc.candI {
		if acc.m.rels[k.rel] == relations.Equals &&
			acc.m.transforms[k.t1].Name == "id" && acc.m.transforms[k.t2].Name == "id" &&
			strings.Contains(acc.tab.String(k.p1), "router-id") &&
			strings.Contains(acc.tab.String(k.p2), "ip address") {
			return true
		}
	}
	return false
}

// TestPruneMissBudget pins the prune's boundary against confidence:
// with N = 20 and C = 0.95, a relation missing one configuration still
// reaches 19/20 = C and is learned, and one missing two is not. The
// budget is computed with acceptRelational's own division.
func TestPruneMissBudget(t *testing.T) {
	if got := missBudget(20, 0.95); got != 1 {
		t.Fatalf("missBudget(20, 0.95) = %d, want 1", got)
	}
	if got := missBudget(20, 1); got != 0 {
		t.Fatalf("missBudget(20, 1) = %d, want 0", got)
	}
	if got := missBudget(0, 0.95); got != math.MaxInt {
		t.Fatalf("missBudget(0, 0.95) = %d, want no bound", got)
	}
	opts := DefaultOptions()
	opts.Confidence = 0.95
	for _, tc := range []struct {
		miss  map[int]bool
		learn bool
	}{
		{map[int]bool{7: true}, true},
		{map[int]bool{7: true, 13: true}, false},
	} {
		for _, par := range []int{1, 3} {
			opts.Parallelism = par
			set := New(opts).Mine(ridCorpus(t, 20, tc.miss, nil))
			r := findRelational(set, "router-id", "equals", "ip address")
			if (r != nil) != tc.learn {
				t.Errorf("%d misses, parallelism %d: learned = %v, want %v", len(tc.miss), par, r != nil, tc.learn)
				continue
			}
			if r != nil && (r.Evidence.Support != 20 || r.Evidence.Confidence != 0.95) {
				t.Errorf("%d misses, parallelism %d: evidence = %+v, want support 20, confidence 0.95",
					len(tc.miss), par, r.Evidence)
			}
		}
	}
}

// TestPruneDropsDeadCandidate folds configurations one at a time and
// watches the candidate table. At C = 1 a candidate dies on its first
// miss: one first seen after a miss is never added, and one already in
// the table is deleted when it is next seen.
func TestPruneDropsDeadCandidate(t *testing.T) {
	opts := DefaultOptions()
	opts.Confidence = 1
	m := New(opts)
	fold := func(acc *StatsAccumulator, cfg *lexer.Config) {
		t.Helper()
		if err := acc.Fold(cfg); err != nil {
			t.Fatal(err)
		}
	}

	// dev01 misses, dev02 holds: the candidate is dead when first seen.
	tab := intern.NewTable()
	cfgs := ridCorpus(t, 2, map[int]bool{1: true}, tab)
	acc := m.NewStatsAccumulator(tab, 10)
	fold(acc, cfgs[0])
	fold(acc, cfgs[1])
	if hasRidCand(acc) {
		t.Error("a candidate first seen after a miss entered the table at C = 1")
	}
	unpruned := m.NewStatsAccumulator(tab, 0)
	fold(unpruned, cfgs[0])
	fold(unpruned, cfgs[1])
	if !hasRidCand(unpruned) {
		t.Fatal("without a run size the candidate is missing: the corpus does not exercise the prune")
	}
	if acc.Candidates() >= unpruned.Candidates() {
		t.Errorf("Candidates() = %d with the prune, %d without; want fewer", acc.Candidates(), unpruned.Candidates())
	}

	// dev01 holds, dev02 misses, dev03 holds: the candidate is in the
	// table until dev03's fold touches it again.
	tab = intern.NewTable()
	cfgs = ridCorpus(t, 3, map[int]bool{2: true}, tab)
	acc = m.NewStatsAccumulator(tab, 10)
	fold(acc, cfgs[0])
	if !hasRidCand(acc) {
		t.Fatal("the candidate is missing after the configuration it holds in")
	}
	fold(acc, cfgs[1])
	before := acc.Candidates()
	fold(acc, cfgs[2])
	if hasRidCand(acc) {
		t.Error("a dead candidate is still in the table after the fold that touched it")
	}
	if acc.Candidates() >= before {
		t.Errorf("Candidates() = %d after the fold, %d before; want fewer", acc.Candidates(), before)
	}
}

// TestPruneBelowSupport: a corpus smaller than the support threshold S
// learns no relational contract, as before the prune, though its
// candidates with no miss stay in the table.
func TestPruneBelowSupport(t *testing.T) {
	m := New(DefaultOptions())
	tab := intern.NewTable()
	cfgs := ridCorpus(t, 4, nil, tab)
	acc := foldAll(t, m, tab, len(cfgs), cfgs)
	if !hasRidCand(acc) {
		t.Fatal("a candidate with no miss was pruned")
	}
	set, err := m.MineAccumulated(context.Background(), acc)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range set.Contracts {
		if c.Category() == contracts.CatRelation {
			t.Errorf("N = 4 < S = 5 learned %s", c.ID())
		}
	}
}
