package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"concord"
	"concord/internal/contracts"
	"concord/internal/synth"
)

// writeDataset materializes a small edge dataset into a directory.
func writeDataset(t *testing.T, dir string, mutateFirst func(string) (string, bool)) {
	t.Helper()
	role, _ := synth.RoleByName("E1", 0.5)
	ds := synth.Generate(role)
	for i, f := range ds.Configs {
		text := string(f.Text)
		if i == 0 && mutateFirst != nil {
			var ok bool
			text, ok = mutateFirst(text)
			if !ok {
				t.Fatal("mutation failed")
			}
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range ds.Meta {
		if err := os.WriteFile(filepath.Join(dir, f.Name), f.Text, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLearnCheckEndToEnd(t *testing.T) {
	dir := t.TempDir()
	writeDataset(t, dir, nil)
	contractsPath := filepath.Join(dir, "contracts.json")

	var out bytes.Buffer
	err := runLearn([]string{
		"-configs", filepath.Join(dir, "*.cfg"),
		"-meta", filepath.Join(dir, "*.json"),
		"-out", contractsPath,
	}, &out)
	if err != nil {
		t.Fatalf("learn: %v", err)
	}
	if !strings.Contains(out.String(), "learned ") {
		t.Errorf("learn output: %s", out.String())
	}
	if _, err := os.Stat(contractsPath); err != nil {
		t.Fatalf("contracts file missing: %v", err)
	}

	// Checking the clean corpus: no violations, exit count 0.
	out.Reset()
	jsonPath := filepath.Join(dir, "report.json")
	htmlPath := filepath.Join(dir, "report.html")
	n, err := runCheck([]string{
		"-configs", filepath.Join(dir, "*.cfg"),
		"-meta", filepath.Join(dir, "*.json"),
		"-contracts", contractsPath,
		"-out", jsonPath,
		"-html", htmlPath,
		"-disable", "ordering",
	}, &out)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if n != 0 {
		t.Errorf("clean corpus: %d violations\n%s", n, out.String())
	}
	for _, p := range []string{jsonPath, htmlPath} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("report %s missing or empty", p)
		}
	}
}

func TestCheckCatchesInjectedBug(t *testing.T) {
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
	out.Reset()
	n, err := runCheck([]string{
		"-configs", filepath.Join(badDir, "*.cfg"),
		"-meta", filepath.Join(badDir, "*.json"),
		"-contracts", contractsPath,
	}, &out)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if n == 0 {
		t.Error("injected bug not caught")
	}
	if !strings.Contains(out.String(), "aggregate-address") {
		t.Errorf("violation output does not mention the missing line:\n%s", out.String())
	}
}

// TestMetricsJSON exercises the observability flags: learn and check
// with -metrics-json must emit a parseable per-stage telemetry report.
func TestMetricsJSON(t *testing.T) {
	dir := t.TempDir()
	writeDataset(t, dir, nil)
	contractsPath := filepath.Join(dir, "contracts.json")
	metricsPath := filepath.Join(dir, "metrics.json")

	var out bytes.Buffer
	if err := runLearn([]string{
		"-configs", filepath.Join(dir, "*.cfg"),
		"-meta", filepath.Join(dir, "*.json"),
		"-out", contractsPath,
		"-metrics-json", metricsPath,
	}, &out); err != nil {
		t.Fatalf("learn: %v", err)
	}
	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatalf("metrics file missing: %v", err)
	}
	rep, err := concord.ParseTelemetryReport(data)
	if err != nil {
		t.Fatalf("parse metrics: %v", err)
	}
	spans := make(map[string]bool)
	for _, sp := range rep.Spans {
		spans[sp.Name] = true
	}
	for _, want := range []string{"process", "mine", "minimize", "mine/present", "mine/relation"} {
		if !spans[want] {
			t.Errorf("learn metrics missing span %q", want)
		}
	}
	if rep.Counters["mine.present.candidates"] == 0 {
		t.Error("learn metrics missing miner counters")
	}
	if rep.Gauges["corpus.configs"] == 0 {
		t.Error("learn metrics missing corpus gauges")
	}
	if rep.WallMS < 0 {
		t.Error("negative total wall time")
	}

	// check with -metrics-json records the check span and counters.
	metricsPath2 := filepath.Join(dir, "metrics-check.json")
	out.Reset()
	if _, err := runCheck([]string{
		"-configs", filepath.Join(dir, "*.cfg"),
		"-meta", filepath.Join(dir, "*.json"),
		"-contracts", contractsPath,
		"-disable", "ordering",
		"-metrics-json", metricsPath2,
	}, &out); err != nil {
		t.Fatalf("check: %v", err)
	}
	data, err = os.ReadFile(metricsPath2)
	if err != nil {
		t.Fatalf("check metrics file missing: %v", err)
	}
	rep, err = concord.ParseTelemetryReport(data)
	if err != nil {
		t.Fatalf("parse check metrics: %v", err)
	}
	found := false
	for _, sp := range rep.Spans {
		if sp.Name == "check" {
			found = true
		}
	}
	if !found {
		t.Error("check metrics missing check span")
	}
	if rep.Counters["check.contracts_evaluated"] == 0 {
		t.Error("check metrics missing contracts_evaluated counter")
	}
}

// TestTimeoutFlag verifies -timeout aborts a run with a context error.
func TestTimeoutFlag(t *testing.T) {
	dir := t.TempDir()
	writeDataset(t, dir, nil)
	var out bytes.Buffer
	err := runLearn([]string{
		"-configs", filepath.Join(dir, "*.cfg"),
		"-meta", filepath.Join(dir, "*.json"),
		"-timeout", "1ns",
	}, &out)
	if err == nil {
		t.Fatal("1ns timeout did not abort the run")
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Errorf("error = %v, want deadline exceeded", err)
	}
}

func TestCLIErrors(t *testing.T) {
	var out bytes.Buffer
	if err := runLearn([]string{"-configs", ""}, &out); err == nil {
		t.Error("missing -configs accepted")
	}
	if err := runLearn([]string{"-configs", "/nonexistent/*.cfg"}, &out); err == nil {
		t.Error("empty glob accepted")
	}
	if _, err := runCheck([]string{"-configs", "x"}, &out); err == nil {
		t.Error("missing -contracts accepted")
	}
}

func TestUserTokensFile(t *testing.T) {
	dir := t.TempDir()
	tokensPath := filepath.Join(dir, "tokens.json")
	if err := os.WriteFile(tokensPath, []byte(`[{"name":"iface","pattern":"et-[0-9]+"}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(dir, "r1.cfg")
	if err := os.WriteFile(cfgPath, []byte("set interfaces et-1 mtu 9100\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := runLearn([]string{
		"-configs", filepath.Join(dir, "*.cfg"),
		"-tokens", tokensPath,
		"-support", "1",
		"-out", filepath.Join(dir, "c.json"),
	}, &out)
	if err != nil {
		t.Fatalf("learn with tokens: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "c.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "[iface]") {
		t.Error("user token type missing from learned contracts")
	}
	// Malformed tokens file is rejected.
	badTokens := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badTokens, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runLearn([]string{
		"-configs", filepath.Join(dir, "*.cfg"),
		"-tokens", badTokens,
	}, &out); err == nil {
		t.Error("malformed tokens file accepted")
	}
}

func TestCoverageSubcommand(t *testing.T) {
	dir := t.TempDir()
	writeDataset(t, dir, nil)
	contractsPath := filepath.Join(dir, "contracts.json")
	var out bytes.Buffer
	if err := runLearn([]string{
		"-configs", filepath.Join(dir, "*.cfg"),
		"-meta", filepath.Join(dir, "*.json"),
		"-out", contractsPath,
	}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := runCoverage([]string{
		"-configs", filepath.Join(dir, "*.cfg"),
		"-meta", filepath.Join(dir, "*.json"),
		"-contracts", contractsPath,
	}, &out); err != nil {
		t.Fatalf("coverage: %v", err)
	}
	text := out.String()
	if !strings.Contains(text, "covered ") {
		t.Errorf("no summary:\n%.500s", text)
	}
	if !strings.HasPrefix(text, "C ") && !strings.Contains(text, "\nC ") {
		t.Error("no covered-line annotations")
	}
	// -uncovered prints only dots.
	out.Reset()
	if err := runCoverage([]string{
		"-configs", filepath.Join(dir, "*.cfg"),
		"-meta", filepath.Join(dir, "*.json"),
		"-contracts", contractsPath,
		"-uncovered",
	}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "\nC ") {
		t.Error("-uncovered printed covered lines")
	}
}

func TestSuppressionFlag(t *testing.T) {
	dir := t.TempDir()
	writeDataset(t, dir, nil)
	contractsPath := filepath.Join(dir, "contracts.json")
	var out bytes.Buffer
	if err := runLearn([]string{
		"-configs", filepath.Join(dir, "*.cfg"),
		"-meta", filepath.Join(dir, "*.json"),
		"-out", contractsPath,
	}, &out); err != nil {
		t.Fatal(err)
	}
	// Checking without metadata violates @meta contracts; suppressing
	// them silences exactly those.
	out.Reset()
	n1, err := runCheck([]string{
		"-configs", filepath.Join(dir, "*.cfg"),
		"-contracts", contractsPath,
		"-disable", "ordering,present,unique",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n1 == 0 {
		t.Fatal("expected @meta violations without metadata")
	}
	// Suppress every relational contract mentioning @meta.
	var ids []string
	data, err := os.ReadFile(contractsPath)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Contracts []struct {
			Category string          `json:"category"`
			Contract json.RawMessage `json:"contract"`
		} `json:"contracts"`
	}
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatal(err)
	}
	for _, c := range parsed.Contracts {
		if strings.Contains(string(c.Contract), "@meta") {
			var body struct {
				P1  string `json:"pattern1"`
				I1  int    `json:"param1"`
				T1  string `json:"transform1"`
				Rel string `json:"rel"`
				P2  string `json:"pattern2"`
				I2  int    `json:"param2"`
				T2  string `json:"transform2"`
			}
			if c.Category != "relation" {
				continue
			}
			if err := json.Unmarshal(c.Contract, &body); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, fmt.Sprintf("relation|%s|%d|%s|%s|%s|%d|%s",
				body.P1, body.I1, body.T1, body.Rel, body.P2, body.I2, body.T2))
		}
	}
	if len(ids) == 0 {
		t.Fatal("no @meta contracts found to suppress")
	}
	supPath := filepath.Join(dir, "suppress.json")
	supData, _ := json.Marshal(ids)
	if err := os.WriteFile(supPath, supData, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	n2, err := runCheck([]string{
		"-configs", filepath.Join(dir, "*.cfg"),
		"-contracts", contractsPath,
		"-disable", "ordering,present,unique",
		"-suppress", supPath,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n2 >= n1 {
		t.Errorf("suppression did not reduce violations: %d -> %d", n1, n2)
	}
	if !strings.Contains(out.String(), "suppressed ") {
		t.Error("suppression not reported")
	}
}

// writeHostileCorpus adds an unreadable entry (a directory matching
// the glob — reads fail with EISDIR even as root), a binary blob, and
// a 10 MB single-line file next to a healthy dataset.
func writeHostileCorpus(t *testing.T, dir string) {
	t.Helper()
	writeDataset(t, dir, nil)
	if err := os.MkdirAll(filepath.Join(dir, "unreadable.cfg"), 0o755); err != nil {
		t.Fatal(err)
	}
	binary := append([]byte("BIN\x00"), bytes.Repeat([]byte{0xff, 0x00}, 2048)...)
	if err := os.WriteFile(filepath.Join(dir, "binary.cfg"), binary, 0o644); err != nil {
		t.Fatal(err)
	}
	huge := append([]byte("hostname "), bytes.Repeat([]byte("x"), 10<<20)...)
	if err := os.WriteFile(filepath.Join(dir, "hugeline.cfg"), huge, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLearnLenientDiagnosticsJSON is the CLI acceptance scenario: a
// corpus with one unreadable, one binary, and one 10 MB-line file
// completes `concord learn -lenient` with per-file diagnostics in the
// -diagnostics-json report; default mode fails on the unreadable file;
// strict mode refuses the degradations.
func TestLearnLenientDiagnosticsJSON(t *testing.T) {
	dir := t.TempDir()
	writeHostileCorpus(t, dir)
	glob := filepath.Join(dir, "*.cfg")
	contractsPath := filepath.Join(dir, "contracts.json")
	diagPath := filepath.Join(dir, "diagnostics.json")

	// Default (neither -lenient nor -strict): the unreadable entry
	// fails the load outright.
	var out bytes.Buffer
	err := runLearn([]string{"-configs", glob, "-out", contractsPath}, &out)
	if err == nil || !strings.Contains(err.Error(), "unreadable.cfg") {
		t.Fatalf("default learn = %v, want load failure naming unreadable.cfg", err)
	}

	// Lenient: completes, learns from the healthy files, and reports
	// each hostile file in the diagnostics JSON.
	out.Reset()
	err = runLearn([]string{
		"-configs", glob, "-out", contractsPath,
		"-lenient", "-diagnostics-json", diagPath,
	}, &out)
	if err != nil {
		t.Fatalf("lenient learn: %v\n%s", err, out.String())
	}
	if _, err := os.Stat(contractsPath); err != nil {
		t.Fatalf("contracts file missing: %v", err)
	}
	data, err := os.ReadFile(diagPath)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := concord.ParseDiagnosticsReport(data)
	if err != nil {
		t.Fatalf("diagnostics report unparseable: %v\n%s", err, data)
	}
	bySource := map[string]concord.Diagnostic{}
	for _, d := range rep.Diagnostics {
		bySource[filepath.Base(d.Source)] = d
	}
	if d, ok := bySource["unreadable.cfg"]; !ok || d.Stage != "load" || d.Severity != concord.SevError {
		t.Errorf("unreadable.cfg diagnostic = %+v (present %v)", d, ok)
	}
	if d, ok := bySource["binary.cfg"]; !ok || d.Severity != concord.SevError {
		t.Errorf("binary.cfg diagnostic = %+v (present %v)", d, ok)
	}
	if d, ok := bySource["hugeline.cfg"]; !ok || d.Severity != concord.SevWarn ||
		!strings.Contains(d.Message, "truncated") {
		t.Errorf("hugeline.cfg diagnostic = %+v (present %v)", d, ok)
	}
	if rep.Errors < 2 || rep.Warnings < 1 {
		t.Errorf("report counts = %+v", rep)
	}
	if !strings.Contains(out.String(), "diagnostic(s) recorded") {
		t.Errorf("no diagnostics summary on stdout:\n%s", out.String())
	}

	// Strict on a readable-but-degraded corpus fails fast with the
	// same information in the error.
	if err := os.RemoveAll(filepath.Join(dir, "unreadable.cfg")); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err = runLearn([]string{"-configs", glob, "-out", contractsPath, "-strict"}, &out)
	if err == nil {
		t.Fatal("strict learn succeeded on degraded corpus")
	}
	if !strings.Contains(err.Error(), "binary.cfg") && !strings.Contains(err.Error(), "hugeline.cfg") {
		t.Errorf("strict error does not name a degraded file: %v", err)
	}
}

// TestFailOnDiagnosticsFlag asserts the exit-policy flag converts a
// successful-but-degraded run into the dedicated sentinel (exit 4).
func TestFailOnDiagnosticsFlag(t *testing.T) {
	dir := t.TempDir()
	writeDataset(t, dir, nil)
	binary := append([]byte("BIN\x00"), bytes.Repeat([]byte{0xff, 0x00}, 2048)...)
	if err := os.WriteFile(filepath.Join(dir, "binary.cfg"), binary, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := runLearn([]string{
		"-configs", filepath.Join(dir, "*.cfg"),
		"-out", filepath.Join(dir, "contracts.json"),
		"-fail-on-diagnostics",
	}, &out)
	if !errors.Is(err, errDiagnostics) {
		t.Fatalf("err = %v, want errDiagnostics", err)
	}

	// A clean corpus with the flag still succeeds.
	clean := t.TempDir()
	writeDataset(t, clean, nil)
	out.Reset()
	if err := runLearn([]string{
		"-configs", filepath.Join(clean, "*.cfg"),
		"-out", filepath.Join(clean, "contracts.json"),
		"-fail-on-diagnostics",
	}, &out); err != nil {
		t.Fatalf("clean corpus with -fail-on-diagnostics: %v", err)
	}
}

// TestLenientStrictMutuallyExclusive asserts the flag combination is
// rejected up front.
func TestLenientStrictMutuallyExclusive(t *testing.T) {
	dir := t.TempDir()
	writeDataset(t, dir, nil)
	var out bytes.Buffer
	err := runLearn([]string{
		"-configs", filepath.Join(dir, "*.cfg"),
		"-out", filepath.Join(dir, "contracts.json"),
		"-lenient", "-strict",
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("err = %v, want mutual-exclusion error", err)
	}
}

// TestCheckLenientDiagnostics runs the check subcommand over a corpus
// with a binary file: lenient mode checks the healthy files and
// reports the skip.
func TestCheckLenientDiagnostics(t *testing.T) {
	dir := t.TempDir()
	writeDataset(t, dir, nil)
	contractsPath := filepath.Join(dir, "contracts.json")
	var out bytes.Buffer
	if err := runLearn([]string{
		"-configs", filepath.Join(dir, "*.cfg"),
		"-meta", filepath.Join(dir, "*.json"),
		"-out", contractsPath,
	}, &out); err != nil {
		t.Fatalf("learn: %v", err)
	}

	binary := append([]byte("BIN\x00"), bytes.Repeat([]byte{0xff, 0x00}, 2048)...)
	if err := os.WriteFile(filepath.Join(dir, "binary.cfg"), binary, 0o644); err != nil {
		t.Fatal(err)
	}
	diagPath := filepath.Join(dir, "check-diagnostics.json")
	out.Reset()
	n, err := runCheck([]string{
		"-configs", filepath.Join(dir, "*.cfg"),
		"-meta", filepath.Join(dir, "*.json"),
		"-contracts", contractsPath,
		"-disable", "ordering",
		"-lenient", "-diagnostics-json", diagPath,
	}, &out)
	if err != nil {
		t.Fatalf("check: %v\n%s", err, out.String())
	}
	if n != 0 {
		t.Errorf("healthy files reported %d violations:\n%s", n, out.String())
	}
	data, err := os.ReadFile(diagPath)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := concord.ParseDiagnosticsReport(data)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, d := range rep.Diagnostics {
		if filepath.Base(d.Source) == "binary.cfg" {
			found = true
		}
	}
	if !found {
		t.Errorf("binary.cfg missing from check diagnostics: %+v", rep.Diagnostics)
	}
}

// TestCheckUniqueMissingFileLevel: a config missing a unique-existence
// line used to render as "file:0" (line zero). The violation is now
// file-level and prints the bare file name.
func TestCheckUniqueMissingFileLevel(t *testing.T) {
	dir := t.TempDir()
	set := &contracts.Set{Contracts: []contracts.Contract{
		&contracts.Unique{Pattern: "/hostname DEV[num]", Display: "/hostname DEV[a:num]", ParamIdx: 0},
	}}
	data, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	contractsPath := filepath.Join(dir, "contracts.json")
	if err := os.WriteFile(contractsPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "r1.cfg"), []byte("router bgp 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	n, err := runCheck([]string{
		"-configs", filepath.Join(dir, "*.cfg"),
		"-contracts", contractsPath,
	}, &out)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if n != 1 {
		t.Fatalf("violations = %d, want 1\n%s", n, out.String())
	}
	if strings.Contains(out.String(), ":0") {
		t.Errorf("file-level violation rendered with a line number:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "r1.cfg: [unique]") {
		t.Errorf("expected file-level unique violation for r1.cfg:\n%s", out.String())
	}
}

// TestShardFlagsCheckOnly: -shards, -shard-workers and -shard-backend
// are registered on `concord check` only. Learn always runs in process,
// so learn (and coverage and serve, which never shard) reject them as
// undefined flags — exit status 2 — before reading any input.
func TestShardFlagsCheckOnly(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range []string{
		"learn -shards 2",
		"learn -shard-workers 2",
		"learn -shard-backend process",
		"coverage -shards 2",
		"serve -shards 2",
	} {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), "CONCORD_CLI_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("concord %s: err = %v, want exit status 2\n%s", args, err, out)
		}
		flagName := strings.Fields(args)[1]
		if !strings.Contains(string(out), "flag provided but not defined: "+flagName) {
			t.Errorf("concord %s: output does not report %s as undefined:\n%s", args, flagName, out)
		}
	}
}

// TestShardedCheckCLIMatchesUnsharded runs the same corpus through
// `concord check` with and without -shards and requires the JSON
// reports to match byte-for-byte outside the generation timestamp.
func TestShardedCheckCLIMatchesUnsharded(t *testing.T) {
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
	stripTimestamp := func(path string) string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep map[string]json.RawMessage
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		delete(rep, "generated_at")
		canon, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return string(canon)
	}
	run := func(extra ...string) (int, string) {
		out.Reset()
		jsonPath := filepath.Join(t.TempDir(), "report.json")
		args := append([]string{
			"-configs", filepath.Join(badDir, "*.cfg"),
			"-meta", filepath.Join(badDir, "*.json"),
			"-contracts", contractsPath,
			"-out", jsonPath,
		}, extra...)
		n, err := runCheck(args, &out)
		if err != nil {
			t.Fatalf("check %v: %v", extra, err)
		}
		return n, stripTimestamp(jsonPath)
	}
	wantN, want := run()
	if wantN == 0 {
		t.Fatal("unsharded run caught no violations; the differential is vacuous")
	}
	for _, shards := range []string{"3", "16"} {
		gotN, got := run("-shards", shards, "-shard-workers", "2")
		if gotN != wantN || got != want {
			t.Errorf("-shards %s: %d violations, report diverges from unsharded (%d)", shards, gotN, wantN)
		}
	}

	if _, err := runCheck([]string{
		"-configs", filepath.Join(badDir, "*.cfg"),
		"-contracts", contractsPath,
		"-shards", "-2",
	}, &out); err == nil {
		t.Error("check accepted a negative -shards")
	}
}
