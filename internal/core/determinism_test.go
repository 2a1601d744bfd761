package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"concord/internal/contracts"
	"concord/internal/synth"
)

// TestCheckAllDeterministic asserts byte-identical JSON output across
// repeated parallel runs: the sharded worker pool and the compiled
// engine's map-ordered buckets must not leak scheduling order into the
// report (ties are broken by file, line, then contract ID).
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
}
