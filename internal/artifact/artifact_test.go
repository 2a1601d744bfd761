package artifact_test

import (
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"concord/internal/artifact"
	"concord/internal/contracts"
	"concord/internal/format"
	"concord/internal/intern"
	"concord/internal/lexer"
	"concord/internal/netdata"
)

func openCache(t *testing.T) *artifact.Cache {
	t.Helper()
	c, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheMissStoreLoad(t *testing.T) {
	c := openCache(t)
	key := artifact.HashBytes("test", []byte("hello"))
	if _, err := c.Load(artifact.KindLex, key); !errors.Is(err, artifact.ErrMiss) {
		t.Fatalf("Load on empty cache: got %v, want ErrMiss", err)
	}
	payload := []byte("some payload bytes")
	if err := c.Store(artifact.KindLex, key, payload); err != nil {
		t.Fatal(err)
	}
	got, err := c.Load(artifact.KindLex, key)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload round-trip: got %q, want %q", got, payload)
	}
	// Kinds are separate namespaces.
	if _, err := c.Load(artifact.KindCheck, key); !errors.Is(err, artifact.ErrMiss) {
		t.Fatalf("Load other kind: got %v, want ErrMiss", err)
	}
}

// entryPath finds the single on-disk entry file of a one-entry cache.
func entryPath(t *testing.T, c *artifact.Cache, kind artifact.Kind) string {
	t.Helper()
	var found string
	root := filepath.Join(c.Dir(), string(kind))
	err := filepath.Walk(root, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			found = p
		}
		return nil
	})
	if err != nil || found == "" {
		t.Fatalf("no entry file under %s (err %v)", root, err)
	}
	return found
}

func TestCacheCorruptionDetected(t *testing.T) {
	key := artifact.HashBytes("test", []byte("x"))
	payload := []byte("payload worth protecting")
	corruptions := []struct {
		name   string
		mutate func(t *testing.T, path string)
	}{
		{"truncated", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbage", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("not an artifact at all"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"version-mismatch", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[4] = 0xFF // schema version field
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-flip", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 0x01
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			c := openCache(t)
			if err := c.Store(artifact.KindLex, key, payload); err != nil {
				t.Fatal(err)
			}
			tc.mutate(t, entryPath(t, c, artifact.KindLex))
			_, err := c.Load(artifact.KindLex, key)
			var ce *artifact.CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("Load after %s: got %v, want *CorruptError", tc.name, err)
			}
			// A Store overwrites the bad entry and recovers the key.
			if err := c.Store(artifact.KindLex, key, payload); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Load(artifact.KindLex, key); err != nil {
				t.Fatalf("Load after repair: %v", err)
			}
		})
	}
}

const sampleConfig = `hostname SW1
!
interface Loopback0
   ip address 10.14.3.34
   ipv6 address 2001:db8::1
!
interface Port-Channel12
   evpn ether-segment
      route-target import 00:00:0c:d3:00:0c
!
ip prefix-list loopback
   seq 10 permit 10.14.3.34/32
!
router bgp 65003
   router-id 0xCAFE
   vlan 243
`

func processSample(t *testing.T, interns *intern.Table) *lexer.Config {
	t.Helper()
	lx, err := lexer.New()
	if err != nil {
		t.Fatal(err)
	}
	cfg := format.Process("sw1.cfg", []byte(sampleConfig), lx,
		format.Options{Embed: true, Interns: interns})
	if cfg.Skipped {
		t.Fatal("sample config was skipped")
	}
	return &cfg
}

func TestConfigCodecRoundTrip(t *testing.T) {
	interns := intern.NewTable()
	cfg := processSample(t, interns)
	payload, ok := artifact.EncodeConfig(cfg)
	if !ok {
		t.Fatal("EncodeConfig: sample config should be encodable")
	}
	decTab := intern.NewTable()
	dec, err := artifact.DecodeConfig(payload, "renamed.cfg", decTab)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Name != "renamed.cfg" {
		t.Fatalf("decoded name %q", dec.Name)
	}
	if dec.SourceLines != cfg.SourceLines {
		t.Fatalf("SourceLines: got %d, want %d", dec.SourceLines, cfg.SourceLines)
	}
	if len(dec.Lines) != len(cfg.Lines) {
		t.Fatalf("lines: got %d, want %d", len(dec.Lines), len(cfg.Lines))
	}
	for i := range cfg.Lines {
		want, got := &cfg.Lines[i], &dec.Lines[i]
		if got.File != "renamed.cfg" {
			t.Fatalf("line %d File %q", i, got.File)
		}
		if got.Num != want.Num || got.Raw != want.Raw || got.Text != want.Text ||
			got.Pattern != want.Pattern || got.Display != want.Display {
			t.Fatalf("line %d mismatch:\n got %+v\nwant %+v", i, got, want)
		}
		if got.PatternID != decTab.ID(want.Pattern) {
			t.Fatalf("line %d PatternID %d not interned in decode table", i, got.PatternID)
		}
		if len(got.Params) != len(want.Params) {
			t.Fatalf("line %d params: got %d, want %d", i, len(got.Params), len(want.Params))
		}
		for pi := range want.Params {
			wp, gp := &want.Params[pi], &got.Params[pi]
			if gp.Name != wp.Name || gp.Type != wp.Type {
				t.Fatalf("line %d param %d: got %s/%s, want %s/%s", i, pi, gp.Name, gp.Type, wp.Name, wp.Type)
			}
			if gp.Value.Kind() != wp.Value.Kind() || gp.Value.Key() != wp.Value.Key() ||
				gp.Value.String() != wp.Value.String() {
				t.Fatalf("line %d param %d value: got %s %q, want %s %q",
					i, pi, gp.Value.Kind(), gp.Value.String(), wp.Value.Kind(), wp.Value.String())
			}
		}
	}
}

func TestDecodeConfigRejectsCorruptPayload(t *testing.T) {
	cfg := processSample(t, intern.NewTable())
	payload, ok := artifact.EncodeConfig(cfg)
	if !ok {
		t.Fatal("sample should encode")
	}
	for cut := 1; cut < len(payload); cut += len(payload) / 17 {
		if _, err := artifact.DecodeConfig(payload[:cut], "x.cfg", nil); err == nil {
			t.Fatalf("DecodeConfig accepted a payload truncated at %d/%d", cut, len(payload))
		}
	}
	if _, err := artifact.DecodeConfig(append(payload[:len(payload):len(payload)], 0xAB), "x.cfg", nil); err == nil {
		t.Fatal("DecodeConfig accepted trailing bytes")
	}
}

// opaqueVal is a custom netdata.Value the decoder cannot reconstruct.
type opaqueVal struct{}

func (opaqueVal) Kind() netdata.Kind { return netdata.KindString }
func (opaqueVal) Key() string        { return "opaque:x" }
func (opaqueVal) String() string     { return "x" }

func TestEncodeConfigRejectsNonRoundTrippable(t *testing.T) {
	meta := &lexer.Config{Lines: []lexer.Line{{Meta: true, Pattern: "@meta/x"}}}
	if _, ok := artifact.EncodeConfig(meta); ok {
		t.Fatal("EncodeConfig accepted a config with metadata lines")
	}
	custom := &lexer.Config{Lines: []lexer.Line{{
		Pattern: "x [a:str]",
		Params:  []lexer.Param{{Name: "a", Type: "str", Value: opaqueVal{}}},
	}}}
	if _, ok := artifact.EncodeConfig(custom); ok {
		t.Fatal("EncodeConfig accepted a custom value implementation")
	}
}

func TestCheckEntryCodecRoundTrip(t *testing.T) {
	entry := &artifact.CheckEntry{
		Violations: []contracts.Violation{
			{Category: contracts.CatPresent, ContractID: "p1", Contract: "present x", File: "a.cfg", Detail: "missing"},
			{Category: contracts.CatType, ContractID: "t9", Contract: "type y", File: "a.cfg", Line: 12, Detail: "bad type"},
		},
		SourceLines: 40,
		Covered:     33,
		ByCategory: map[contracts.Category]int{
			contracts.CatPresent: 20,
			contracts.CatUnique:  0,
		},
		Unique: map[string][]contracts.UniqueSite{
			"u1": {{Key: "num:7", Display: "7", Line: 3}, {Key: "num:9", Display: "9", Line: 8}},
			"u2": {},
		},
	}
	payload := artifact.EncodeCheckEntry(entry)
	dec, err := artifact.DecodeCheckEntry(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec.Violations, entry.Violations) {
		t.Fatalf("violations:\n got %+v\nwant %+v", dec.Violations, entry.Violations)
	}
	if dec.SourceLines != entry.SourceLines || dec.Covered != entry.Covered {
		t.Fatalf("counts: got %d/%d, want %d/%d", dec.SourceLines, dec.Covered, entry.SourceLines, entry.Covered)
	}
	if !reflect.DeepEqual(dec.ByCategory, entry.ByCategory) {
		t.Fatalf("by-category: got %v, want %v", dec.ByCategory, entry.ByCategory)
	}
	if len(dec.Unique) != len(entry.Unique) || !reflect.DeepEqual(dec.Unique["u1"], entry.Unique["u1"]) {
		t.Fatalf("unique: got %v, want %v", dec.Unique, entry.Unique)
	}
	// Determinism: two encodings of the same entry are byte-identical.
	if string(payload) != string(artifact.EncodeCheckEntry(entry)) {
		t.Fatal("EncodeCheckEntry is not deterministic")
	}
	for cut := 1; cut < len(payload); cut += 5 {
		if _, err := artifact.DecodeCheckEntry(payload[:cut]); err == nil {
			t.Fatalf("DecodeCheckEntry accepted truncation at %d/%d", cut, len(payload))
		}
	}
}

// checkEntryGolden is EncodeCheckEntry of goldenCheckEntry. The check
// artifact cache and the shard wire both carry this layout; changing it
// without bumping artifact.SchemaVersion would make warm caches replay
// garbage, so a layout change must fail here.
const checkEntryGolden = "2821020770726573656e741406756e6971756502020770726573656e740270310970726573656e74207805612e63666700076d697373696e6706756e6971756502753108756e69717565207905612e636667ac020364757002027531020b69703a31302e302e302e310831302e302e302e31030b69703a31302e302e302e320831302e302e302e32ac0202753201056e756d3a39013908"

func goldenCheckEntry() *artifact.CheckEntry {
	return &artifact.CheckEntry{
		Violations: []contracts.Violation{
			{Category: contracts.CatPresent, ContractID: "p1", Contract: "present x", File: "a.cfg", Detail: "missing"},
			{Category: contracts.CatUnique, ContractID: "u1", Contract: "unique y", File: "a.cfg", Line: 300, Detail: "dup"},
		},
		SourceLines: 40,
		Covered:     33,
		ByCategory:  map[contracts.Category]int{contracts.CatPresent: 20, contracts.CatUnique: 2},
		Unique: map[string][]contracts.UniqueSite{
			"u2": {{Key: "num:9", Display: "9", Line: 8}},
			"u1": {{Key: "ip:10.0.0.1", Display: "10.0.0.1", Line: 3}, {Key: "ip:10.0.0.2", Display: "10.0.0.2", Line: 300}},
		},
	}
}

func TestCheckEntryGoldenLayout(t *testing.T) {
	if artifact.SchemaVersion != 1 {
		t.Fatalf("SchemaVersion = %d: re-pin checkEntryGolden for the new layout", artifact.SchemaVersion)
	}
	got := hex.EncodeToString(artifact.EncodeCheckEntry(goldenCheckEntry()))
	if got != checkEntryGolden {
		t.Fatalf("CheckEntry layout changed without a SchemaVersion bump:\n got %s\nwant %s", got, checkEntryGolden)
	}
	raw, _ := hex.DecodeString(checkEntryGolden)
	dec, err := artifact.DecodeCheckEntry(raw)
	if err != nil {
		t.Fatal(err)
	}
	if want := goldenCheckEntry(); !reflect.DeepEqual(dec, want) {
		t.Fatalf("golden decode:\n got %+v\nwant %+v", dec, want)
	}
}

// TestReduceUniqueSitesReplay asserts that Unique sites replayed from a
// check entry (the warm-cache and worker-process paths) reduce exactly
// as sites extracted directly from the configurations, and as the cold
// CheckUniqueAcross walk over the configurations themselves.
func TestReduceUniqueSitesReplay(t *testing.T) {
	set := &contracts.Set{Contracts: []contracts.Contract{
		&contracts.Unique{Pattern: "/hostname r[num]", Display: "/hostname r[a:num]", ParamIdx: 0},
		&contracts.Unique{Pattern: "/router-id [ip4]", Display: "/router-id [a:ip4]", ParamIdx: 0},
	}}
	ch := contracts.NewChecker(set)
	lx := lexer.MustNew()
	var cfgs []*lexer.Config
	var names []string
	var direct, replayed []map[string][]contracts.UniqueSite
	for i := 0; i < 12; i++ {
		lb := i
		if i%5 == 4 {
			lb = i / 5 // every fifth device reuses an earlier loopback
		}
		name := fmt.Sprintf("r%02d.cfg", i)
		text := fmt.Sprintf("hostname r%02d\nrouter-id 10.0.%d.1\n", i, lb)
		cfg := format.Process(name, []byte(text), lx, format.Options{Embed: true})
		sites := ch.UniqueContributions(&cfg)
		dec, err := artifact.DecodeCheckEntry(artifact.EncodeCheckEntry(&artifact.CheckEntry{Unique: sites}))
		if err != nil {
			t.Fatal(err)
		}
		cfgs, names = append(cfgs, &cfg), append(names, name)
		direct, replayed = append(direct, sites), append(replayed, dec.Unique)
	}
	reduce := func(sites []map[string][]contracts.UniqueSite) []contracts.Violation {
		return ch.ReduceUnique(len(names), func(i int) (string, map[string][]contracts.UniqueSite) { return names[i], sites[i] })
	}
	want := ch.CheckUniqueAcross(cfgs)
	if len(want) == 0 {
		t.Fatal("corpus planted no duplicates; the test is vacuous")
	}
	if got := reduce(direct); !reflect.DeepEqual(got, want) {
		t.Errorf("direct reduce = %+v, want %+v", got, want)
	}
	if got := reduce(replayed); !reflect.DeepEqual(got, want) {
		t.Errorf("replayed reduce = %+v, want %+v", got, want)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	c := openCache(t)
	if _, err := c.ReadManifest(); !errors.Is(err, artifact.ErrMiss) {
		t.Fatalf("ReadManifest on empty cache: got %v, want ErrMiss", err)
	}
	m := &artifact.Manifest{
		Schema:     artifact.SchemaVersion,
		OptionsFP:  "aa11",
		ContractFP: "bb22",
		Configs: []artifact.ManifestEntry{
			{Name: "a.cfg", ContentHash: "cc33", LexHit: true, CheckHit: true},
			{Name: "b.cfg", ContentHash: "dd44"},
		},
	}
	if err := c.WriteManifest(m); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("manifest round-trip:\n got %+v\nwant %+v", got, m)
	}
}

func TestHasherFieldBoundaries(t *testing.T) {
	a := artifact.NewHasher("d").Str("ab").Str("c").Sum()
	b := artifact.NewHasher("d").Str("a").Str("bc").Sum()
	if a == b {
		t.Fatal("adjacent fields alias")
	}
	if artifact.NewHasher("d1").Str("x").Sum() == artifact.NewHasher("d2").Str("x").Sum() {
		t.Fatal("domains collide")
	}
}
