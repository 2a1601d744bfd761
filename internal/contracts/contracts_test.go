package contracts

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"concord/internal/format"
	"concord/internal/lexer"
	"concord/internal/relations"
)

func cfgFromText(t *testing.T, name, text string) *lexer.Config {
	t.Helper()
	lx := lexer.MustNew()
	cfg := format.Process(name, []byte(text), lx, format.Options{Embed: true})
	return &cfg
}

func TestContractStrings(t *testing.T) {
	p := &Present{Pattern: "/router bgp [num]", Display: "/router bgp [a:num]"}
	if p.String() != "exists l ~ /router bgp [a:num]" {
		t.Errorf("Present.String = %q", p.String())
	}
	r := &Relational{
		Display1: "interface Port-Channel[a:num]", ParamIdx1: 0, Transform1: "hex",
		Rel:      relations.Equals,
		Display2: "route-target import [b:mac]", ParamIdx2: 0, Transform2: "segment6",
	}
	want := "forall l1 ~ interface Port-Channel[a:num]\nexists l2 ~ route-target import [b:mac]\nequals(hex(l1.a), segment6(l2.a))"
	if r.String() != want {
		t.Errorf("Relational.String = %q, want %q", r.String(), want)
	}
	c := &Relational{
		Display1: "ip address [a:ip4]", Transform1: "id",
		Rel:      relations.Contains,
		Display2: "seq [a:num] permit [b:pfx4]", ParamIdx2: 1, Transform2: "id",
	}
	if !strings.Contains(c.String(), "contains(l2.b, l1.a)") {
		t.Errorf("contains rendering = %q", c.String())
	}
	ty := &TypeError{Agnostic: "ip address [?]", ParamIdx: 0, BadType: "bool"}
	if ty.String() != "!(exists l ~ ip address [?] with a:[bool])" {
		t.Errorf("TypeError.String = %q", ty.String())
	}
	u := &Unique{Display: "hostname DEV[a:num]", ParamIdx: 0}
	if u.String() != "unique(a) on hostname DEV[a:num]" {
		t.Errorf("Unique.String = %q", u.String())
	}
	s := &Sequence{Display: "seq [a:num] permit [b:pfx4]", ParamIdx: 0}
	if s.String() != "sequence(a) on seq [a:num] permit [b:pfx4]" {
		t.Errorf("Sequence.String = %q", s.String())
	}
	o := &Ordering{DisplayFirst: "A", DisplaySecond: "B"}
	if !strings.Contains(o.String(), "index(l1) + 1") {
		t.Errorf("Ordering.String = %q", o.String())
	}
}

func TestContractIDsDistinct(t *testing.T) {
	cs := []Contract{
		&Present{Pattern: "p"},
		&Ordering{First: "p", Second: "q"},
		&TypeError{Agnostic: "p", ParamIdx: 0, BadType: "bool"},
		&Sequence{Pattern: "p", ParamIdx: 0},
		&Unique{Pattern: "p", ParamIdx: 0},
		&Relational{Pattern1: "p", Rel: relations.Equals, Pattern2: "q"},
	}
	seen := map[string]bool{}
	for _, c := range cs {
		if seen[c.ID()] {
			t.Errorf("duplicate ID %q", c.ID())
		}
		seen[c.ID()] = true
	}
}

// TestRelationalIDFormat pins Relational.ID to the fmt form it was
// first written as: IDs are part of every report and contract set.
func TestRelationalIDFormat(t *testing.T) {
	for _, c := range []*Relational{
		{Pattern1: "interface Port-Channel[num]", ParamIdx1: 0, Transform1: "hex", Rel: relations.Equals,
			Pattern2: "route-target import [mac]", ParamIdx2: 12, Transform2: "segment6"},
		{Pattern1: "", ParamIdx1: 63, Rel: relations.Contains, Pattern2: "a|b", ParamIdx2: -1},
	} {
		want := fmt.Sprintf("relation|%s|%d|%s|%s|%s|%d|%s",
			c.Pattern1, c.ParamIdx1, c.Transform1, c.Rel, c.Pattern2, c.ParamIdx2, c.Transform2)
		if got := c.ID(); got != want {
			t.Errorf("ID = %q, want %q", got, want)
		}
	}
}

func TestSetJSONRoundTrip(t *testing.T) {
	orig := &Set{Contracts: []Contract{
		&Present{Pattern: "/router bgp [num]", Display: "/router bgp [a:num]", Evidence: Stats{Support: 10, Confidence: 1}},
		&Ordering{First: "/a", Second: "/b", DisplayFirst: "/a", DisplaySecond: "/b", Evidence: Stats{Support: 5, Confidence: 0.97}},
		&TypeError{Agnostic: "ip address [?]", ParamIdx: 0, BadType: "bool", GoodTypes: []string{"ip4"}, Evidence: Stats{Support: 8, Confidence: 0.99}},
		&Sequence{Pattern: "/seq [num]", Display: "/seq [a:num]", ParamIdx: 0, Evidence: Stats{Support: 7, Confidence: 1}},
		&Unique{Pattern: "/hostname DEV[num]", Display: "/hostname DEV[a:num]", ParamIdx: 0, Evidence: Stats{Support: 12, Confidence: 1}},
		&Relational{
			Pattern1: "/p1", Display1: "/p1", ParamIdx1: 0, Transform1: "hex",
			Rel:      relations.Equals,
			Pattern2: "/p2", Display2: "/p2", ParamIdx2: 1, Transform2: "segment6",
			Evidence: Stats{Support: 9, Confidence: 0.98, Score: 42.5},
		},
	}}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var back Set
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if back.Len() != orig.Len() {
		t.Fatalf("Len = %d, want %d", back.Len(), orig.Len())
	}
	for i := range orig.Contracts {
		if orig.Contracts[i].ID() != back.Contracts[i].ID() {
			t.Errorf("contract %d: ID %q != %q", i, back.Contracts[i].ID(), orig.Contracts[i].ID())
		}
		if orig.Contracts[i].Stats() != back.Contracts[i].Stats() {
			t.Errorf("contract %d: stats changed", i)
		}
	}
}

func TestSetJSONUnknownCategory(t *testing.T) {
	var s Set
	if err := json.Unmarshal([]byte(`[{"category":"bogus","contract":{}}]`), &s); err == nil {
		t.Error("unknown category accepted")
	}
}

func TestCheckPresent(t *testing.T) {
	set := &Set{Contracts: []Contract{
		&Present{Pattern: "/router bgp [num]", Display: "/router bgp [a:num]"},
	}}
	ch := NewChecker(set)
	ok := cfgFromText(t, "ok", "router bgp 65015\n")
	if vs := ch.Check(ok); len(vs) != 0 {
		t.Errorf("unexpected violations: %+v", vs)
	}
	bad := cfgFromText(t, "bad", "hostname DEV1\n")
	vs := ch.Check(bad)
	if len(vs) != 1 || vs[0].Category != CatPresent || vs[0].Line != 0 {
		t.Errorf("violations = %+v", vs)
	}
}

func TestCheckOrdering(t *testing.T) {
	set := &Set{Contracts: []Contract{
		&Ordering{First: "/redistribute connected", Second: "/neighbor [ip4] peer-group OPT-A",
			DisplayFirst: "/redistribute connected", DisplaySecond: "/neighbor [a:ip4] peer-group OPT-A"},
	}}
	ch := NewChecker(set)
	ok := cfgFromText(t, "ok", "redistribute connected\nneighbor 10.0.0.1 peer-group OPT-A\n")
	if vs := ch.Check(ok); len(vs) != 0 {
		t.Errorf("unexpected violations: %+v", vs)
	}
	// The §5.5 example 3 scenario: a line inserted between the pair.
	bad := cfgFromText(t, "bad", "redistribute connected\nvlan 99\nneighbor 10.0.0.1 peer-group OPT-A\n")
	vs := ch.Check(bad)
	if len(vs) != 1 || vs[0].Category != CatOrdering || vs[0].Line != 1 {
		t.Errorf("violations = %+v", vs)
	}
	// Forall line at end of file also violates.
	tail := cfgFromText(t, "tail", "redistribute connected\n")
	if vs := ch.Check(tail); len(vs) != 1 {
		t.Errorf("violations = %+v", vs)
	}
}

func TestCheckType(t *testing.T) {
	set := &Set{Contracts: []Contract{
		&TypeError{Agnostic: "/ip address [?]", ParamIdx: 0, BadType: "pfx4", GoodTypes: []string{"ip4"}},
	}}
	ch := NewChecker(set)
	ok := cfgFromText(t, "ok", "ip address 10.0.0.1\n")
	if vs := ch.Check(ok); len(vs) != 0 {
		t.Errorf("unexpected violations: %+v", vs)
	}
	bad := cfgFromText(t, "bad", "ip address 10.0.0.1/24\n")
	vs := ch.Check(bad)
	if len(vs) != 1 || vs[0].Category != CatType || vs[0].Line != 1 {
		t.Errorf("violations = %+v", vs)
	}
}

func TestCheckSequence(t *testing.T) {
	set := &Set{Contracts: []Contract{
		&Sequence{Pattern: "/seq [num] permit [pfx4]", Display: "/seq [a:num] permit [b:pfx4]", ParamIdx: 0},
	}}
	ch := NewChecker(set)
	ok := cfgFromText(t, "ok", "seq 10 permit 10.0.0.0/8\nseq 20 permit 10.1.0.0/16\nseq 30 permit 10.2.0.0/16\n")
	if vs := ch.Check(ok); len(vs) != 0 {
		t.Errorf("unexpected violations: %+v", vs)
	}
	// Missing the middle element breaks equidistance.
	bad := cfgFromText(t, "bad", "seq 10 permit 10.0.0.0/8\nseq 30 permit 10.2.0.0/16\nseq 40 permit 10.3.0.0/16\n")
	vs := ch.Check(bad)
	if len(vs) != 1 || vs[0].Category != CatSequence {
		t.Errorf("violations = %+v", vs)
	}
	// A single line never violates.
	single := cfgFromText(t, "single", "seq 10 permit 10.0.0.0/8\n")
	if vs := ch.Check(single); len(vs) != 0 {
		t.Errorf("unexpected violations: %+v", vs)
	}
}

func TestCheckUnique(t *testing.T) {
	set := &Set{Contracts: []Contract{
		&Unique{Pattern: "/hostname DEV[num]", Display: "/hostname DEV[a:num]", ParamIdx: 0},
	}}
	ch := NewChecker(set)
	a := cfgFromText(t, "a", "hostname DEV1\n")
	b := cfgFromText(t, "b", "hostname DEV2\n")
	dup := cfgFromText(t, "dup", "hostname DEV1\n")
	if vs := ch.CheckAll([]*lexer.Config{a, b}); len(vs) != 0 {
		t.Errorf("unexpected violations: %+v", vs)
	}
	vs := ch.CheckAll([]*lexer.Config{a, b, dup})
	if len(vs) != 1 || vs[0].Category != CatUnique || vs[0].File != "dup" {
		t.Errorf("violations = %+v", vs)
	}
	// Existence component: a config without the pattern violates.
	missing := cfgFromText(t, "missing", "router bgp 1\n")
	vs = ch.Check(missing)
	if len(vs) != 1 || vs[0].Line != 0 {
		t.Errorf("violations = %+v", vs)
	}
}

const figure1Config = `hostname DEV1
!
interface Loopback0
   ip address 10.14.14.34
!
interface Port-Channel11
   evpn ether-segment
      route-target import 00:00:0c:d3:00:0b
!
interface Port-Channel110
   evpn ether-segment
      route-target import 00:00:0c:d3:00:6e
!
ip prefix-list loopback
   seq 10 permit 10.14.14.34/32
   seq 20 permit 0.0.0.0/0
!
router bgp 65015
   maximum-paths 64 ecmp 64
   vlan 251
      rd 10.14.14.117:10251
`

func figure1Contracts() *Set {
	return &Set{Contracts: []Contract{
		// Contract 1: port channel number in hex equals last MAC segment.
		&Relational{
			Pattern1: "/interface Port-Channel[num]", Display1: "/interface Port-Channel[a:num]",
			ParamIdx1: 0, Transform1: "hex",
			Rel:       relations.Equals,
			Pattern2:  "/interface Port-Channel[num]/evpn ether-segment/route-target import [mac]",
			Display2:  "/interface Port-Channel[num]/evpn ether-segment/route-target import [a:mac]",
			ParamIdx2: 0, Transform2: "segment6",
		},
		// Contract 2: every interface address is permitted by a prefix.
		&Relational{
			Pattern1: "/interface Loopback[num]/ip address [ip4]", Display1: "/interface Loopback[num]/ip address [a:ip4]",
			ParamIdx1: 0, Transform1: "id",
			Rel:       relations.Contains,
			Pattern2:  "/ip prefix-list loopback/seq [num] permit [pfx4]",
			Display2:  "/ip prefix-list loopback/seq [a:num] permit [b:pfx4]",
			ParamIdx2: 1, Transform2: "id",
		},
		// Contract 3: the rd number ends with the vlan number.
		&Relational{
			Pattern1: "/router bgp [num]/vlan [num]", Display1: "/router bgp [num]/vlan [a:num]",
			ParamIdx1: 0, Transform1: "str",
			Rel:       relations.EndsWith,
			Pattern2:  "/router bgp [num]/vlan [num]/rd [ip4]:[num]",
			Display2:  "/router bgp [num]/vlan [num]/rd [a:ip4]:[b:num]",
			ParamIdx2: 1, Transform2: "str",
		},
	}}
}

func TestCheckFigure1Relational(t *testing.T) {
	ch := NewChecker(figure1Contracts())
	good := cfgFromText(t, "good", figure1Config)
	if vs := ch.Check(good); len(vs) != 0 {
		t.Fatalf("good config violated: %+v", vs)
	}

	// Break contract 1: wrong MAC segment for Port-Channel110.
	broken1 := strings.Replace(figure1Config, "00:00:0c:d3:00:6e", "00:00:0c:d3:00:70", 1)
	vs := NewChecker(figure1Contracts()).Check(cfgFromText(t, "b1", broken1))
	if len(vs) != 1 || vs[0].Category != CatRelation {
		t.Errorf("broken mac: violations = %+v", vs)
	}

	// Break contract 2: loopback address not covered by any prefix.
	// (Also drop the default route, which would otherwise contain it.)
	broken2 := strings.Replace(figure1Config, "seq 10 permit 10.14.14.34/32", "seq 10 permit 10.99.0.0/16", 1)
	broken2 = strings.Replace(broken2, "seq 20 permit 0.0.0.0/0", "seq 20 permit 10.98.0.0/16", 1)
	vs = NewChecker(figure1Contracts()).Check(cfgFromText(t, "b2", broken2))
	if len(vs) != 1 || vs[0].Category != CatRelation {
		t.Errorf("broken prefix: violations = %+v", vs)
	}

	// Break contract 3: rd suffix no longer matches the vlan.
	broken3 := strings.Replace(figure1Config, "rd 10.14.14.117:10251", "rd 10.14.14.117:10299", 1)
	vs = NewChecker(figure1Contracts()).Check(cfgFromText(t, "b3", broken3))
	if len(vs) != 1 || vs[0].Category != CatRelation {
		t.Errorf("broken rd: violations = %+v", vs)
	}
}

func TestCheckRelationalVacuous(t *testing.T) {
	ch := NewChecker(figure1Contracts())
	empty := cfgFromText(t, "empty", "hostname X9\n")
	if vs := ch.Check(empty); len(vs) != 0 {
		t.Errorf("vacuous contracts should not fire: %+v", vs)
	}
}

func TestCheckRelationalUnknownTransform(t *testing.T) {
	set := &Set{Contracts: []Contract{&Relational{
		Pattern1: "/hostname DEV[num]", Display1: "/hostname DEV[a:num]",
		Transform1: "nosuch", Rel: relations.Equals,
		Pattern2: "/hostname DEV[num]", ParamIdx2: 0, Transform2: "id",
	}}}
	ch := NewChecker(set)
	vs := ch.Check(cfgFromText(t, "c", "hostname DEV1\n"))
	if len(vs) != 1 {
		t.Errorf("unknown transform should be reported: %+v", vs)
	}
}

func TestCoverageFigure1(t *testing.T) {
	ch := NewChecker(figure1Contracts())
	cfg := cfgFromText(t, "good", figure1Config)
	cov := ch.Coverage(cfg)
	if cov.SourceLines != 21 {
		t.Errorf("SourceLines = %d, want 21", cov.SourceLines)
	}
	// The rd line is the sole witness of contract 3: covered.
	rdIdx := -1
	seq10 := -1
	for i, l := range cfg.Lines {
		if strings.HasPrefix(l.Raw, "rd ") {
			rdIdx = i
		}
		if strings.HasPrefix(l.Raw, "seq 10") {
			seq10 = i
		}
	}
	if !cov.ByCategory[CatRelation][rdIdx] {
		t.Error("rd line should be covered by the endswith contract")
	}
	// seq 10 is NOT the sole witness for the loopback IP (0.0.0.0/0 also
	// contains it), so contract 2 covers neither seq line.
	if cov.ByCategory[CatRelation][seq10] {
		t.Error("seq 10 should not be covered (two witnesses exist)")
	}
	if cov.Percent() <= 0 || cov.Percent() > 100 {
		t.Errorf("Percent = %v", cov.Percent())
	}
}

func TestCoveragePresentAndUnique(t *testing.T) {
	set := &Set{Contracts: []Contract{
		&Present{Pattern: "/router bgp [num]", Display: "/router bgp [a:num]"},
		&Present{Pattern: "/vlan [num]", Display: "/vlan [a:num]"},
		&Unique{Pattern: "/hostname DEV[num]", Display: "/hostname DEV[a:num]", ParamIdx: 0},
	}}
	ch := NewChecker(set)
	cfg := cfgFromText(t, "c", "hostname DEV1\nrouter bgp 65015\nvlan 1\nvlan 2\n")
	cov := ch.Coverage(cfg)
	// router bgp: single match -> covered. vlan: two matches -> neither.
	if len(cov.ByCategory[CatPresent]) != 1 {
		t.Errorf("present coverage = %v", cov.ByCategory[CatPresent])
	}
	if len(cov.ByCategory[CatUnique]) != 1 {
		t.Errorf("unique coverage = %v", cov.ByCategory[CatUnique])
	}
	if cov.Percent() != 50 {
		t.Errorf("Percent = %v, want 50", cov.Percent())
	}
}

func TestCoverageOrdering(t *testing.T) {
	set := &Set{Contracts: []Contract{
		&Ordering{First: "/a", Second: "/b", DisplayFirst: "/a", DisplaySecond: "/b"},
	}}
	ch := NewChecker(set)
	cfg := cfgFromText(t, "c", "a\nb\nc\n")
	cov := ch.Coverage(cfg)
	// Removing b leaves a followed by c: b is covered.
	if len(cov.ByCategory[CatOrdering]) != 1 {
		t.Errorf("ordering coverage = %v", cov.ByCategory[CatOrdering])
	}
	// With a second b after the first, removing either b still leaves a
	// valid successor... (a, b, b): removing the first b leaves a->b.
	cfg2 := cfgFromText(t, "c2", "a\nb\nb\n")
	cov2 := ch.Coverage(cfg2)
	if len(cov2.ByCategory[CatOrdering]) != 0 {
		t.Errorf("redundant successor should not be covered: %v", cov2.ByCategory[CatOrdering])
	}
}

func TestCoverageSequence(t *testing.T) {
	set := &Set{Contracts: []Contract{
		&Sequence{Pattern: "/seq [num]", Display: "/seq [a:num]", ParamIdx: 0},
	}}
	ch := NewChecker(set)
	cfg := cfgFromText(t, "c", "seq 10\nseq 20\nseq 30\nseq 40\n")
	cov := ch.Coverage(cfg)
	// Interior lines are covered; endpoints are not (10,20,30 minus 10 is
	// still equidistant).
	if len(cov.ByCategory[CatSequence]) != 2 {
		t.Errorf("sequence coverage = %v, want 2 interior lines", cov.ByCategory[CatSequence])
	}
}

// TestWitnessSearchRunsOnce counts a custom relation's Holds calls:
// CheckConfig searches each forall line's witnesses once for both the
// violations and the coverage, so it calls Holds exactly as often as
// Coverage alone does.
func TestWitnessSearchRunsOnce(t *testing.T) {
	calls := 0
	same := func(lhs, witness relations.Value) bool {
		calls++
		return lhs.Key() == witness.Key()
	}
	set := &Set{Contracts: []Contract{&Relational{
		Pattern1: "/vlan [num]", Display1: "/vlan [a:num]", Transform1: "id", Rel: "same",
		Pattern2: "/id [num]", Display2: "/id [b:num]", Transform2: "id",
	}}}
	ch := NewChecker(set, WithRelations([]relations.Definition{{Rel: "same", Holds: same}}))
	// vlan 1 has two witnesses, vlan 2 one (id 2, covered), vlan 3 none
	// (a violation).
	cfg := cfgFromText(t, "c", "vlan 1\nvlan 2\nvlan 3\nid 1\nid 1\nid 2\nid 9\n")
	r := ch.CheckConfig(cfg)
	onePass := calls
	calls = 0
	ch.Coverage(cfg)
	if onePass == 0 || onePass != calls {
		t.Errorf("CheckConfig made %d Holds calls, Coverage alone %d; want equal and nonzero", onePass, calls)
	}
	if len(r.Violations) != 1 || r.Violations[0].Line != 3 {
		t.Errorf("violations = %+v, want one on line 3", r.Violations)
	}
	if cov := r.Coverage.ByCategory[CatRelation]; len(cov) != 1 || !cov[5] {
		t.Errorf("relational coverage = %v, want only line index 5 (id 2)", cov)
	}
}

func TestCheckAllDeterministicOrder(t *testing.T) {
	set := &Set{Contracts: []Contract{
		&Present{Pattern: "/x", Display: "/x"},
		&Present{Pattern: "/y", Display: "/y"},
	}}
	ch := NewChecker(set)
	a := cfgFromText(t, "a", "hostname H1\n")
	b := cfgFromText(t, "b", "hostname H2\n")
	v1 := ch.CheckAll([]*lexer.Config{a, b})
	v2 := ch.CheckAll([]*lexer.Config{a, b})
	if len(v1) != 4 || len(v2) != 4 {
		t.Fatalf("violations = %d, %d", len(v1), len(v2))
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Error("violation order not deterministic")
		}
	}
}

func TestSetHelpers(t *testing.T) {
	s := &Set{Contracts: []Contract{
		&Present{Pattern: "a"}, &Present{Pattern: "b"}, &Unique{Pattern: "c"},
	}}
	if s.Count(CatPresent) != 2 || s.Count(CatUnique) != 1 || s.Count(CatType) != 0 {
		t.Error("Count wrong")
	}
	by := s.ByCategory()
	if len(by[CatPresent]) != 2 {
		t.Error("ByCategory wrong")
	}
	if len(Categories()) != 6 {
		t.Error("Categories wrong")
	}
}

func TestSetWithout(t *testing.T) {
	s := &Set{Contracts: []Contract{
		&Present{Pattern: "/a", Display: "/a"},
		&Present{Pattern: "/b", Display: "/b"},
		&Unique{Pattern: "/c", ParamIdx: 0},
	}}
	out, n := s.Without(map[string]bool{"present|/a": true, "nope": true})
	if n != 1 || out.Len() != 2 {
		t.Fatalf("Without: n=%d len=%d", n, out.Len())
	}
	for _, c := range out.Contracts {
		if c.ID() == "present|/a" {
			t.Error("suppressed contract survived")
		}
	}
	// The original set is untouched.
	if s.Len() != 3 {
		t.Error("original set mutated")
	}
}
