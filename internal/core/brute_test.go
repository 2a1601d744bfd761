package core

import (
	"context"
	"testing"

	"concord/internal/contracts"
	"concord/internal/mining"
	"concord/internal/synth"
)

// TestBruteForceMatchesIndexedE1 is the §5.2 ablation's oracle on an
// engine-processed synth role: with the fanout cap out of reach, the
// brute-force and indexed relational miners must learn the same set.
// Unlike the hand-written mining corpora, E1 yields transform echoes
// (equals under a matching non-identity transform pair whose identity
// form also holds), which both miners must suppress alike.
func TestBruteForceMatchesIndexedE1(t *testing.T) {
	role, ok := synth.RoleByName("E1", 0.25)
	if !ok {
		t.Fatal("unknown synth role E1")
	}
	var srcs []Source
	for _, f := range synth.Generate(role).Configs {
		srcs = append(srcs, Source{Name: f.Name, Text: f.Text})
	}
	cfgs, _ := MustNew(DefaultOptions()).Process(srcs, nil)
	opts := mining.DefaultOptions()
	opts.MaxFanout = 1 << 20
	opts.Categories = map[contracts.Category]bool{contracts.CatRelation: true}
	m := mining.New(opts)
	indexed := m.Mine(cfgs)
	brute, err := m.MineRelationalBruteForce(context.Background(), cfgs)
	if err != nil {
		t.Fatalf("brute force: %v", err)
	}
	if indexed.Len() == 0 {
		t.Fatal("indexed miner learned nothing; the test is vacuous")
	}
	ids := make(map[string]bool, indexed.Len())
	for _, c := range indexed.Contracts {
		ids[c.ID()] = true
	}
	for _, c := range brute {
		if !ids[c.ID()] {
			t.Errorf("brute-only contract: %s", c.ID())
		}
		delete(ids, c.ID())
	}
	for id := range ids {
		t.Errorf("indexed-only contract: %s", id)
	}
	t.Logf("%d contracts, %d brute-force", indexed.Len(), len(brute))
}
