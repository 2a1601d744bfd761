package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"concord"
	"concord/internal/synth"
)

// TestMain doubles as the shard-worker trampoline: `-shard-backend
// process` re-launches the running executable — this test binary — as
// its worker with CONCORD_SHARD_WORKER=1, which enters the worker loop
// here before the test flags are parsed. With
// CONCORD_CLI_ARGS set it runs the CLI's main on those
// (whitespace-split) arguments instead, so a test can observe the real
// exit status and stderr of a command line.
func TestMain(m *testing.M) {
	if os.Getenv("CONCORD_SHARD_WORKER") == "1" {
		if err := concord.RunShardWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	if args := os.Getenv("CONCORD_CLI_ARGS"); args != "" {
		os.Args = append([]string{"concord"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestCheckShardBackendProcess runs `concord check` through the
// process backend and requires the JSON report and the planted
// violation count to match the in-process run, with the distributed
// counters present in -metrics-json.
func TestCheckShardBackendProcess(t *testing.T) {
	trainDir := t.TempDir()
	writeDataset(t, trainDir, nil)
	contractsPath := filepath.Join(trainDir, "contracts.json")
	var out bytes.Buffer
	if err := runLearn([]string{
		"-configs", filepath.Join(trainDir, "*.cfg"),
		"-meta", filepath.Join(trainDir, "*.json"),
		"-out", contractsPath,
	}, &out); err != nil {
		t.Fatalf("learn: %v", err)
	}

	badDir := t.TempDir()
	writeDataset(t, badDir, synth.InjectMissingAggregate)
	report := func(extra ...string) (int, string) {
		t.Helper()
		jsonPath := filepath.Join(t.TempDir(), "report.json")
		args := append([]string{
			"-configs", filepath.Join(badDir, "*.cfg"),
			"-meta", filepath.Join(badDir, "*.json"),
			"-contracts", contractsPath,
			"-out", jsonPath,
		}, extra...)
		var buf bytes.Buffer
		n, err := runCheck(args, &buf)
		if err != nil {
			t.Fatalf("check %v: %v", extra, err)
		}
		b, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		// The report wrapper stamps a wall-clock generated_at; byte
		// identity applies to everything else.
		var rep map[string]json.RawMessage
		if err := json.Unmarshal(b, &rep); err != nil {
			t.Fatal(err)
		}
		delete(rep, "generated_at")
		norm, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return n, string(norm)
	}

	wantN, want := report()
	if wantN == 0 {
		t.Fatal("injected bug not caught by the baseline run")
	}
	metricsPath := filepath.Join(t.TempDir(), "metrics.json")
	gotN, got := report("-shards", "4", "-shard-backend", "process", "-metrics-json", metricsPath)
	if gotN != wantN || got != want {
		t.Errorf("process backend diverges: %d violations vs %d\n got %s\nwant %s", gotN, wantN, got, want)
	}
	var metrics struct {
		Counters map[string]int64 `json:"counters"`
	}
	mb, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mb, &metrics); err != nil {
		t.Fatal(err)
	}
	if metrics.Counters["shard.dispatches"] == 0 || metrics.Counters["worker.spawns"] == 0 {
		t.Errorf("distributed counters missing from -metrics-json: %v", metrics.Counters)
	}
}
