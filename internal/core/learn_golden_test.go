package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"concord/internal/synth"
)

// learnGoldens pins the learned sets of three synth roles (scale 0.75,
// the first 40 sources, default options): the sha256 of the set's JSON
// and its contract count. The digests were recorded when a separate
// string-keyed reference miner still existed and agreed with the
// accumulator fold byte for byte on every row; they now stand in for
// that reference. A digest change means the learned output changed.
var learnGoldens = []struct {
	role      string
	contracts int
	digest    string
}{
	{"W4", 1519, "417360cfcde8d0f670a7f15fbaa9a6b819a86a24cc8582167cd77909e81562db"},
	{"W2", 629, "f000ae3b389e39565a34a835d8d76de55b6788635a0309a153eb47c686342374"},
	{"E2", 204, "71a8e85f2817935a0dc2b9ad84de4f66275536a81a925600fb2af3f5e8899cdd"},
}

// assertLearnGolden learns golden row i on eng and compares the result
// with its pinned digest and contract count.
func assertLearnGolden(t *testing.T, i int, eng *Engine) {
	t.Helper()
	g := learnGoldens[i]
	role, ok := synth.RoleByName(g.role, 0.75)
	if !ok {
		t.Fatalf("unknown synth role %s", g.role)
	}
	var srcs []Source
	for _, f := range synth.Generate(role).Configs {
		srcs = append(srcs, Source{Name: f.Name, Text: f.Text})
	}
	lr, err := eng.Learn(srcs[:min(40, len(srcs))], nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(lr.Set)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != g.digest || lr.Set.Len() != g.contracts {
		t.Errorf("%s: learned %d contracts with digest %s, want %d with %s",
			g.role, lr.Set.Len(), got, g.contracts, g.digest)
	}
}

// TestLearnGolden is the learn-side golden test: the unsharded learn of
// each pinned role must reproduce its digest. Intern ID assignment
// order varies under parallel workers and must never leak into mined
// output, so the pin also catches nondeterminism.
func TestLearnGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second corpora; skipped in -short mode")
	}
	for i, g := range learnGoldens {
		t.Run(g.role, func(t *testing.T) { assertLearnGolden(t, i, MustNew(DefaultOptions())) })
	}
}

// TestShardedLearnGolden is the golden test's sharded row: W4 learned
// on the process backend, 3 shards over 2 worker processes (this test
// binary, see distEngine), must hit the unsharded digest.
func TestShardedLearnGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second corpus; skipped in -short mode")
	}
	assertLearnGolden(t, 0, distEngine(t, 3, 2, nil))
}
