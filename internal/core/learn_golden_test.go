package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"concord/internal/lexer"
	"concord/internal/synth"
)

// TestLearnGoldenFastMatchesBaseline is the learn-side golden
// comparison: over the W4 synth corpus, the fast learn path (interned
// pattern store, ID-keyed stats and relational tables) must mine a
// contract set that is byte-identical, as JSON, to the string-keyed
// reference path. MineContext takes that path for any corpus without a
// single shared intern table, so the reference run learns from copies
// of the same processed configs with Interns cleared.
func TestLearnGoldenFastMatchesBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second corpus; skipped in -short mode")
	}
	role, ok := synth.RoleByName("W4", 0.75)
	if !ok {
		t.Fatal("unknown synth role W4")
	}
	ds := synth.Generate(role)
	var srcs []Source
	for _, f := range ds.Configs {
		srcs = append(srcs, Source{Name: f.Name, Text: f.Text})
	}

	run := func(stringKeyed bool) ([]byte, int) {
		eng := MustNew(DefaultOptions())
		cfgs, pstats, err := eng.ProcessContext(context.Background(), srcs, nil)
		if err != nil {
			t.Fatal(err)
		}
		train := cfgs[:40]
		if stringKeyed {
			train = make([]*lexer.Config, len(cfgs[:40]))
			for i, cfg := range cfgs[:40] {
				c := *cfg
				c.Interns = nil
				train[i] = &c
			}
		}
		lr, err := eng.LearnProcessed(train, pstats)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(lr.Set)
		if err != nil {
			t.Fatal(err)
		}
		return data, lr.Set.Len()
	}

	want, wantN := run(true)
	got, gotN := run(false)
	if wantN < 200 {
		t.Fatalf("string-keyed path mined only %d contracts; comparison too small to be meaningful", wantN)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("mined contract sets differ: string-keyed=%d contracts (%d bytes), fast=%d contracts (%d bytes)",
			wantN, len(want), gotN, len(got))
		// Locate the first divergent contract for the failure report.
		var ws, gs []json.RawMessage
		if json.Unmarshal(want, &ws) == nil && json.Unmarshal(got, &gs) == nil {
			n := min(len(ws), len(gs))
			for i := 0; i < n; i++ {
				if !bytes.Equal(ws[i], gs[i]) {
					t.Errorf("first divergence at contract %d:\nstring-keyed = %s\nfast         = %s", i, ws[i], gs[i])
					break
				}
			}
		}
	}

	// The fast path must also be self-consistent across repeated runs
	// (intern ID assignment order varies under parallel workers but
	// must never leak into mined output).
	again, _ := run(false)
	if !bytes.Equal(got, again) {
		t.Error("fast path is nondeterministic: two runs produced different contract sets")
	}
}
