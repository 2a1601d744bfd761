package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"concord/internal/artifact"
	"concord/internal/diag"
	"concord/internal/telemetry"
)

// warmEngine builds a fresh engine sharing the given cache; a new
// recorder per run keeps counters per-pass.
func warmEngine(t *testing.T, cache *artifact.Cache, incremental bool) (*Engine, *telemetry.Recorder) {
	t.Helper()
	opts := DefaultOptions()
	opts.Parallelism = 4
	opts.Artifacts = cache
	opts.Incremental = incremental
	rec := telemetry.NewRecorder()
	opts.Telemetry = rec
	return MustNew(opts), rec
}

func openTestCache(t *testing.T) *artifact.Cache {
	t.Helper()
	cache, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return cache
}

// assertSameCheck compares everything a caller observes from a check.
func assertSameCheck(t *testing.T, label string, got, want *CheckResult) {
	t.Helper()
	if !reflect.DeepEqual(got.Violations, want.Violations) {
		t.Errorf("%s: violations diverge:\n got %+v\nwant %+v", label, got.Violations, want.Violations)
	}
	if !reflect.DeepEqual(got.Coverage, want.Coverage) {
		t.Errorf("%s: coverage diverges:\n got %+v\nwant %+v", label, got.Coverage, want.Coverage)
	}
	if got.Stats != want.Stats {
		t.Errorf("%s: stats diverge: got %+v, want %+v", label, got.Stats, want.Stats)
	}
}

func TestIncrementalRequiresArtifacts(t *testing.T) {
	opts := DefaultOptions()
	opts.Incremental = true
	if _, err := New(opts); err == nil {
		t.Fatal("New accepted Incremental without Artifacts")
	}
}

// TestWarmRunMatchesCold is the headline warm-run property: a second
// incremental run over an unchanged corpus replays every lex and check
// artifact and produces results identical to a cache-less run.
func TestWarmRunMatchesCold(t *testing.T) {
	train := chaosSources(20)
	test := chaosSources(8)
	lr, err := MustNew(DefaultOptions()).Learn(train, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := MustNew(DefaultOptions()).Check(lr.Set, test, nil)
	if err != nil {
		t.Fatal(err)
	}

	cache := openTestCache(t)
	popEng, popRec := warmEngine(t, cache, true)
	populate, err := popEng.Check(lr.Set, test, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCheck(t, "populate", populate, cold)
	if hits := popRec.Counter("artifact.cache_hits"); hits != 0 {
		t.Errorf("populate run had %d cache hits, want 0", hits)
	}

	warmEng, warmRec := warmEngine(t, cache, true)
	warm, err := warmEng.Check(lr.Set, test, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCheck(t, "warm", warm, cold)
	if len(warm.Diagnostics) != 0 {
		t.Errorf("warm run diagnostics: %+v", warm.Diagnostics)
	}
	// Every config should hit both its lex and its check artifact.
	if hits, want := warmRec.Counter("artifact.cache_hits"), int64(2*len(test)); hits != want {
		t.Errorf("warm cache hits = %d, want %d", hits, want)
	}
	if misses := warmRec.Counter("artifact.cache_misses"); misses != 0 {
		t.Errorf("warm cache misses = %d, want 0", misses)
	}
	if warmRec.Counter("artifact.bytes_read") == 0 {
		t.Error("warm run read no artifact bytes")
	}

	m, err := cache.ReadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Configs) != len(test) {
		t.Fatalf("manifest has %d configs, want %d", len(m.Configs), len(test))
	}
	for _, mc := range m.Configs {
		if !mc.LexHit || !mc.CheckHit {
			t.Errorf("manifest entry %s: lex_hit=%v check_hit=%v, want both true", mc.Name, mc.LexHit, mc.CheckHit)
		}
	}
}

// TestWarmRunLexArtifactsOnly: a cache without -incremental still
// skips re-lexing but re-checks everything.
func TestWarmRunLexArtifactsOnly(t *testing.T) {
	train := chaosSources(20)
	test := chaosSources(6)
	lr, err := MustNew(DefaultOptions()).Learn(train, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := MustNew(DefaultOptions()).Check(lr.Set, test, nil)
	if err != nil {
		t.Fatal(err)
	}
	cache := openTestCache(t)
	for i := 0; i < 2; i++ {
		eng, rec := warmEngine(t, cache, false)
		got, err := eng.Check(lr.Set, test, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertSameCheck(t, fmt.Sprintf("run %d", i), got, cold)
		if i == 1 {
			if hits, want := rec.Counter("artifact.cache_hits"), int64(len(test)); hits != want {
				t.Errorf("lex-only warm hits = %d, want %d", hits, want)
			}
		}
	}
}

// TestWarmLexKeyCoversProcessingOnly: the lex-artifact key hashes the
// processing part of the options and nothing else. A mining option
// change (Support) still replays every lex artifact; a processing
// option change (ContextEmbedding) misses them all.
func TestWarmLexKeyCoversProcessingOnly(t *testing.T) {
	test := chaosSources(6)
	cache := openTestCache(t)
	learnHits := func(mutate func(*Options)) int64 {
		t.Helper()
		opts := DefaultOptions()
		rec := telemetry.NewRecorder()
		opts.Artifacts, opts.Telemetry = cache, rec
		mutate(&opts)
		if _, err := MustNew(opts).Learn(test, nil); err != nil {
			t.Fatal(err)
		}
		return rec.Counter("artifact.cache_hits")
	}
	learnHits(func(*Options) {})
	if hits, want := learnHits(func(o *Options) { o.Support = 3 }), int64(len(test)); hits != want {
		t.Errorf("Support change: %d lex artifact hits, want %d", hits, want)
	}
	if hits := learnHits(func(o *Options) { o.ContextEmbedding = false }); hits != 0 {
		t.Errorf("ContextEmbedding change: %d lex artifact hits, want 0", hits)
	}
}

// TestWarmRunUniqueCrossConfigExact changes one config between runs so
// that its new value duplicates a value held by a cached, unchanged
// config. The incremental unique merge (cached multisets + fresh
// extraction) must flag the duplicate exactly like a cold run.
func TestWarmRunUniqueCrossConfigExact(t *testing.T) {
	train := chaosSources(20)
	lr, err := MustNew(DefaultOptions()).Learn(train, nil)
	if err != nil {
		t.Fatal(err)
	}
	hasUnique := false
	for _, c := range lr.Set.Contracts {
		if c.Category() == "unique" {
			hasUnique = true
		}
	}
	if !hasUnique {
		t.Fatal("training corpus mined no unique contracts; test cannot exercise the merge")
	}

	test := chaosSources(8)
	cache := openTestCache(t)
	popEng, _ := warmEngine(t, cache, true)
	if _, err := popEng.Check(lr.Set, test, nil); err != nil {
		t.Fatal(err)
	}

	// r05 now claims r02's vlan (120) and router-id: cross-config
	// duplicates spanning a changed and an unchanged config.
	changed := chaosSources(8)
	changed[5].Text = []byte(strings.Replace(string(changed[5].Text), "vlan 150", "vlan 120", 1))

	cold, err := MustNew(DefaultOptions()).Check(lr.Set, changed, nil)
	if err != nil {
		t.Fatal(err)
	}
	dupFound := false
	for _, v := range cold.Violations {
		if strings.Contains(v.Detail, "duplicates") {
			dupFound = true
		}
	}
	if !dupFound {
		t.Fatalf("cold run found no duplicate-value violation; corpus does not exercise the merge: %+v", cold.Violations)
	}

	warmEng, warmRec := warmEngine(t, cache, true)
	warm, err := warmEng.Check(lr.Set, changed, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCheck(t, "warm-with-change", warm, cold)
	// 7 unchanged configs hit lex+check; the changed one misses both.
	if hits, want := warmRec.Counter("artifact.cache_hits"), int64(2*7); hits != want {
		t.Errorf("warm hits = %d, want %d", hits, want)
	}
	if misses, want := warmRec.Counter("artifact.cache_misses"), int64(2); misses != want {
		t.Errorf("warm misses = %d, want %d", misses, want)
	}
}

// TestWarmRunContractSetChangeMissesCheckArtifacts: editing the
// contract set invalidates check artifacts (fingerprint mismatch) but
// keeps lex artifacts hot.
func TestWarmRunContractSetChangeMissesCheckArtifacts(t *testing.T) {
	train := chaosSources(20)
	test := chaosSources(6)
	lr, err := MustNew(DefaultOptions()).Learn(train, nil)
	if err != nil {
		t.Fatal(err)
	}
	cache := openTestCache(t)
	popEng, _ := warmEngine(t, cache, true)
	if _, err := popEng.Check(lr.Set, test, nil); err != nil {
		t.Fatal(err)
	}
	cp := *lr.Set
	smaller := &cp
	smaller.Contracts = lr.Set.Contracts[:len(lr.Set.Contracts)-1]
	cold, err := MustNew(DefaultOptions()).Check(smaller, test, nil)
	if err != nil {
		t.Fatal(err)
	}
	warmEng, warmRec := warmEngine(t, cache, true)
	warm, err := warmEng.Check(smaller, test, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCheck(t, "contract-change", warm, cold)
	if hits, want := warmRec.Counter("artifact.cache_hits"), int64(len(test)); hits != want {
		t.Errorf("hits = %d, want %d (lex only)", hits, want)
	}
	if misses, want := warmRec.Counter("artifact.cache_misses"), int64(len(test)); misses != want {
		t.Errorf("misses = %d, want %d (every check artifact)", misses, want)
	}
}

// cacheEntryFiles lists every artifact entry file in the cache.
func cacheEntryFiles(t *testing.T, cache *artifact.Cache) []string {
	t.Helper()
	var files []string
	err := filepath.Walk(cache.Dir(), func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && filepath.Base(p) != "manifest.json" {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestChaosCachePoisoningFallsBackCold poisons three cache entries
// three different ways (truncation, garbage, version flip). The warm
// run must fall back to the cold path for each — results identical to
// a cache-less run, exactly one warning diagnostic per poisoned entry,
// no goroutine leaks — and overwrite the bad entries so the next run
// is clean.
func TestChaosCachePoisoningFallsBackCold(t *testing.T) {
	train := chaosSources(20)
	test := chaosSources(6)
	lr, err := MustNew(DefaultOptions()).Learn(train, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := MustNew(DefaultOptions()).Check(lr.Set, test, nil)
	if err != nil {
		t.Fatal(err)
	}
	cache := openTestCache(t)
	popEng, _ := warmEngine(t, cache, true)
	if _, err := popEng.Check(lr.Set, test, nil); err != nil {
		t.Fatal(err)
	}

	files := cacheEntryFiles(t, cache)
	if len(files) < 3 {
		t.Fatalf("expected at least 3 cache entries, found %d", len(files))
	}
	// Three poisons, three distinct files.
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[1], []byte("complete garbage, not an artifact"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(files[2])
	if err != nil {
		t.Fatal(err)
	}
	data[4] = 0x7F // schema version byte
	if err := os.WriteFile(files[2], data, 0o644); err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	warmEng, warmRec := warmEngine(t, cache, true)
	warm, err := warmEng.Check(lr.Set, test, nil)
	if err != nil {
		t.Fatalf("Check with poisoned cache = %v, want fallback", err)
	}
	assertNoLeak(t, before)
	assertSameCheck(t, "poisoned", warm, cold)
	var artifactDiags []diag.Diagnostic
	for _, d := range warm.Diagnostics {
		if d.Stage != "artifact" {
			t.Errorf("unexpected non-artifact diagnostic: %+v", d)
			continue
		}
		if d.Severity != diag.SevWarn {
			t.Errorf("poisoned-entry diagnostic severity = %v, want warning: %+v", d.Severity, d)
		}
		artifactDiags = append(artifactDiags, d)
	}
	if len(artifactDiags) != 3 {
		t.Errorf("artifact diagnostics = %d, want exactly 1 per poisoned entry (3): %+v", len(artifactDiags), artifactDiags)
	}
	if inv := warmRec.Counter("artifact.invalidations"); inv != 3 {
		t.Errorf("artifact.invalidations = %d, want 3", inv)
	}

	// The fallback overwrote the poisoned entries: the next run is
	// diagnostic-free and still correct.
	againEng, _ := warmEngine(t, cache, true)
	again, err := againEng.Check(lr.Set, test, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCheck(t, "after-repair", again, cold)
	if len(again.Diagnostics) != 0 {
		t.Errorf("post-repair diagnostics: %+v", again.Diagnostics)
	}
}

// TestWarmRunStrictModeAbortsOnPoison documents the strict-mode
// policy: a poisoned cache entry is a diagnostic, and a strict run
// aborts on any diagnostic — whether the entry is a lex or a check
// artifact, and on the in-process stream and the process backend alike.
func TestWarmRunStrictModeAbortsOnPoison(t *testing.T) {
	lr, err := MustNew(DefaultOptions()).Learn(chaosSources(20), nil)
	if err != nil {
		t.Fatal(err)
	}
	test := chaosSources(6)
	for _, kind := range []artifact.Kind{artifact.KindLex, artifact.KindCheck} {
		for _, backend := range []string{ShardBackendInProcess, ShardBackendProcess} {
			t.Run(string(kind)+"/"+backend, func(t *testing.T) {
				cache := openTestCache(t)
				popEng, _ := warmEngine(t, cache, true)
				if _, err := popEng.Check(lr.Set, test, nil); err != nil {
					t.Fatal(err)
				}
				poisoned := false
				for _, f := range cacheEntryFiles(t, cache) {
					if strings.Contains(f, string(os.PathSeparator)+string(kind)+string(os.PathSeparator)) {
						if err := os.WriteFile(f, []byte("garbage"), 0o644); err != nil {
							t.Fatal(err)
						}
						poisoned = true
						break
					}
				}
				if !poisoned {
					t.Fatalf("the populated cache holds no %s artifact", kind)
				}
				strict := func(o *Options) {
					o.Artifacts, o.Incremental, o.Strict = cache, true, true
				}
				var eng *Engine
				if backend == ShardBackendProcess {
					eng = distEngine(t, 3, 2, strict)
				} else {
					opts := DefaultOptions()
					strict(&opts)
					eng = MustNew(opts)
				}
				_, err := eng.Check(lr.Set, test, nil)
				if err == nil || !strings.Contains(err.Error(), "strict mode") || !strings.Contains(err.Error(), "cache entry unusable") {
					t.Errorf("strict check over a poisoned %s artifact = %v, want a strict-mode abort naming the entry", kind, err)
				}
			})
		}
	}
}
