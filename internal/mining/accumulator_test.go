package mining

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"concord/internal/format"
	"concord/internal/intern"
	"concord/internal/lexer"
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

// foldAll streams cfgs into a fresh accumulator.
func foldAll(t *testing.T, m *Miner, tab *intern.Table, cfgs []*lexer.Config) *StatsAccumulator {
	t.Helper()
	acc := m.NewStatsAccumulator(tab)
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
		whole := foldAll(t, m, tab, cfgs)
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
				accs = append(accs, foldAll(t, m, tab, cfgs[cuts[i]:cuts[i+1]]))
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
