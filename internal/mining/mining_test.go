package mining

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"strings"
	"testing"

	"concord/internal/contracts"
	"concord/internal/diag"
	"concord/internal/faultinject"
	"concord/internal/format"
	"concord/internal/lexer"
	"concord/internal/netdata"
	"concord/internal/relations"
)

// figure1Device renders a Figure-1-style edge switch configuration for
// device d, with values parameterized so that cross-device diversity is
// realistic: the MAC's last segment is the port-channel number in hex,
// the loopback address is permitted by the prefix list, and the route
// distinguisher ends with the vlan number.
func figure1Device(d int) string {
	pc1, pc2 := 11+d, 110+d
	vlan := 200 + d
	var b strings.Builder
	fmt.Fprintf(&b, "hostname DEV%d\n!\n", d)
	fmt.Fprintf(&b, "interface Loopback0\n   ip address 10.14.%d.34\n!\n", d)
	for _, pc := range []int{pc1, pc2} {
		fmt.Fprintf(&b, "interface Port-Channel%d\n   evpn ether-segment\n      route-target import 00:00:0c:d3:00:%02x\n!\n", pc, pc)
	}
	fmt.Fprintf(&b, "ip prefix-list loopback\n   seq 10 permit 10.14.%d.34/32\n   seq 20 permit 0.0.0.0/0\n!\n", d)
	fmt.Fprintf(&b, "router bgp %d\n   maximum-paths 64 ecmp 64\n   vlan %d\n      rd 10.14.%d.117:10%d\n!\n", 65000+d, vlan, d, vlan)
	return b.String()
}

func figure1Corpus(t *testing.T, n int) []*lexer.Config {
	t.Helper()
	lx := lexer.MustNew()
	var cfgs []*lexer.Config
	for d := 1; d <= n; d++ {
		cfg := format.Process(fmt.Sprintf("dev%d", d), []byte(figure1Device(d)), lx, format.Options{Embed: true})
		cfgs = append(cfgs, &cfg)
	}
	return cfgs
}

func mineDefault(t *testing.T, cfgs []*lexer.Config) *contracts.Set {
	t.Helper()
	return New(DefaultOptions()).Mine(cfgs)
}

func hasContractID(set *contracts.Set, id string) bool {
	for _, c := range set.Contracts {
		if c.ID() == id {
			return true
		}
	}
	return false
}

func findRelational(set *contracts.Set, substr1, rel, substr2 string) *contracts.Relational {
	for _, c := range set.Contracts {
		r, ok := c.(*contracts.Relational)
		if !ok {
			continue
		}
		if string(r.Rel) == rel &&
			strings.Contains(r.Pattern1, substr1) &&
			strings.Contains(r.Pattern2, substr2) {
			return r
		}
	}
	return nil
}

func TestMinePresent(t *testing.T) {
	set := mineDefault(t, figure1Corpus(t, 10))
	for _, pat := range []string{
		"/hostname DEV[num]",
		"/router bgp [num]",
		"/interface Loopback[num]/ip address [ip4]",
		"/ip prefix-list loopback",
	} {
		if !hasContractID(set, "present|"+pat) {
			t.Errorf("missing present contract for %q", pat)
		}
	}
}

func TestMinePresentRespectsSupport(t *testing.T) {
	// With only 3 configs (< default support 5), nothing is learned.
	set := mineDefault(t, figure1Corpus(t, 3))
	if set.Count(contracts.CatPresent) != 0 {
		t.Errorf("learned %d present contracts from 3 configs", set.Count(contracts.CatPresent))
	}
}

func TestMinePresentRespectsConfidence(t *testing.T) {
	cfgs := figure1Corpus(t, 10)
	// Remove the router bgp block from one config: 9/10 = 0.9 < 0.96.
	lx := lexer.MustNew()
	txt := figure1Device(1)
	txt = txt[:strings.Index(txt, "router bgp")]
	cfg := format.Process("dev1", []byte(txt), lx, format.Options{Embed: true})
	cfgs[0] = &cfg
	set := mineDefault(t, cfgs)
	if hasContractID(set, "present|/router bgp [num]") {
		t.Error("low-confidence present contract learned")
	}
	if !hasContractID(set, "present|/hostname DEV[num]") {
		t.Error("unrelated present contract lost")
	}
}

func TestMineOrdering(t *testing.T) {
	set := mineDefault(t, figure1Corpus(t, 10))
	// evpn ether-segment always follows interface Port-Channel[num].
	found := false
	for _, c := range set.Contracts {
		o, ok := c.(*contracts.Ordering)
		if !ok {
			continue
		}
		if o.First == "/interface Port-Channel[num]" &&
			strings.Contains(o.Second, "evpn ether-segment") {
			found = true
			if o.Evidence.Confidence < 0.96 {
				t.Errorf("confidence = %v", o.Evidence.Confidence)
			}
		}
	}
	if !found {
		t.Error("missing ordering contract for port-channel -> evpn")
	}
}

func TestMineSequence(t *testing.T) {
	set := mineDefault(t, figure1Corpus(t, 10))
	want := "sequence|/ip prefix-list loopback/seq [num] permit [pfx4]|0"
	if !hasContractID(set, want) {
		t.Errorf("missing sequence contract %q", want)
	}
}

func TestMineUnique(t *testing.T) {
	set := mineDefault(t, figure1Corpus(t, 10))
	if !hasContractID(set, "unique|/hostname DEV[num]|0") {
		t.Error("hostname should be unique")
	}
	if !hasContractID(set, "unique|/interface Loopback[num]/ip address [ip4]|0") {
		t.Error("loopback address should be unique")
	}
	// seq numbers repeat in every config: never unique.
	if hasContractID(set, "unique|/ip prefix-list loopback/seq [num] permit [pfx4]|0") {
		t.Error("repeated seq numbers learned as unique")
	}
}

func TestMineTypes(t *testing.T) {
	// 30 configs with ip4, 1 with a pfx4 at the same spot.
	lx := lexer.MustNew()
	var cfgs []*lexer.Config
	for d := 0; d < 30; d++ {
		text := fmt.Sprintf("interface Loopback0\n   ip address 10.0.%d.1\n", d)
		cfg := format.Process(fmt.Sprintf("t%d", d), []byte(text), lx, format.Options{Embed: true})
		cfgs = append(cfgs, &cfg)
	}
	bad := format.Process("bad", []byte("interface Loopback0\n   ip address 10.0.99.1/24\n"), lx, format.Options{Embed: true})
	cfgs = append(cfgs, &bad)
	set := mineDefault(t, cfgs)
	found := false
	for _, c := range set.Contracts {
		te, ok := c.(*contracts.TypeError)
		if !ok {
			continue
		}
		if te.BadType == "pfx4" && strings.Contains(te.Agnostic, "ip address") {
			found = true
			if len(te.GoodTypes) != 1 || te.GoodTypes[0] != "ip4" {
				t.Errorf("GoodTypes = %v", te.GoodTypes)
			}
		}
	}
	if !found {
		t.Error("missing type contract for rare pfx4 use")
	}
	// The dominant type must never be flagged.
	for _, c := range set.Contracts {
		if te, ok := c.(*contracts.TypeError); ok && te.BadType == "ip4" {
			t.Error("dominant type flagged as error")
		}
	}
}

func TestMineRelationalFigure1(t *testing.T) {
	set := mineDefault(t, figure1Corpus(t, 10))

	// Contract 1: hex(port-channel) == segment6(mac).
	c1 := findRelational(set, "/interface Port-Channel[num]", "equals", "route-target import [mac]")
	if c1 == nil {
		t.Fatal("missing hex/segment contract (Figure 1 contract 1)")
	}
	if !(c1.Transform1 == "hex" && c1.Transform2 == "segment6") &&
		!(c1.Transform1 == "segment6" && c1.Transform2 == "hex") {
		t.Errorf("transforms = %s / %s", c1.Transform1, c1.Transform2)
	}

	// Contract 2: prefix contains loopback address.
	c2 := findRelational(set, "ip address [ip4]", "contains", "seq [num] permit [pfx4]")
	if c2 == nil {
		t.Fatal("missing contains contract (Figure 1 contract 2)")
	}
	if c2.Transform1 != "id" || c2.Transform2 != "id" {
		t.Errorf("transforms = %s / %s", c2.Transform1, c2.Transform2)
	}

	// Contract 3: rd number ends with the vlan number.
	c3 := findRelational(set, "/router bgp [num]/vlan [num]", "endswith", "rd [ip4]:[num]")
	if c3 == nil {
		t.Fatal("missing endswith contract (Figure 1 contract 3)")
	}
}

func TestMineRelationalRejectsSpurious(t *testing.T) {
	set := mineDefault(t, figure1Corpus(t, 10))
	// The rd IP (10.14.x.117) is contained only by 0.0.0.0/0, whose
	// informativeness is zero: the contract must be rejected (§3.5).
	spurious := findRelational(set, "rd [ip4]:[num]", "contains", "seq [num] permit [pfx4]")
	if spurious != nil {
		t.Errorf("spurious default-route contract learned: %s", spurious)
	}
	// Low-diversity equality (maximum-paths 64 ecmp 64) is also rejected.
	lowdiv := findRelational(set, "maximum-paths [num] ecmp [num]", "equals", "maximum-paths [num] ecmp [num]")
	if lowdiv != nil {
		t.Errorf("low-diversity constant equality learned: %s", lowdiv)
	}
}

func TestMineRelationalBrokenInvariantNotLearned(t *testing.T) {
	// If a third of the configs break the MAC invariant, confidence
	// falls below C and the contract disappears.
	lx := lexer.MustNew()
	var cfgs []*lexer.Config
	for d := 1; d <= 12; d++ {
		text := figure1Device(d)
		if d%3 == 0 {
			text = strings.Replace(text, "00:00:0c:d3:00:", "00:00:0c:d3:01:", 2)
			// Only the last segment participates; shifting segment 5
			// leaves the contract intact, so break segment 6 instead.
			text = strings.Replace(text, fmt.Sprintf(":%02x\n", 11+d), ":ff\n", 1)
			text = strings.Replace(text, fmt.Sprintf(":%02x\n", 110+d), ":fe\n", 1)
		}
		cfg := format.Process(fmt.Sprintf("dev%d", d), []byte(text), lx, format.Options{Embed: true})
		cfgs = append(cfgs, &cfg)
	}
	set := mineDefault(t, cfgs)
	c1 := findRelational(set, "/interface Port-Channel[num]", "equals", "route-target import [mac]")
	if c1 != nil && c1.Transform1 == "hex" && c1.Transform2 == "segment6" {
		t.Errorf("broken invariant still learned with confidence %v", c1.Evidence.Confidence)
	}
}

func TestMineConstantLearning(t *testing.T) {
	opts := DefaultOptions()
	opts.ConstantLearning = true
	set := New(opts).Mine(figure1Corpus(t, 10))
	// "maximum-paths 64 ecmp 64" recurs verbatim in every config.
	found := false
	for _, c := range set.Contracts {
		if p, ok := c.(*contracts.Present); ok && p.Exact &&
			strings.Contains(p.Pattern, "maximum-paths 64 ecmp 64") {
			found = true
		}
	}
	if !found {
		t.Error("missing exact-text constant contract")
	}
	// Device-specific lines (hostname DEV7) must not become constants.
	for _, c := range set.Contracts {
		if p, ok := c.(*contracts.Present); ok && p.Exact &&
			strings.Contains(p.Pattern, "hostname DEV") {
			t.Errorf("device-specific constant learned: %s", p.Pattern)
		}
	}
}

func TestLearnedContractsHoldOnTraining(t *testing.T) {
	// Soundness: contracts learned at confidence 1.0 produce no
	// violations when checked against their own training set.
	cfgs := figure1Corpus(t, 10)
	set := mineDefault(t, cfgs)
	ch := contracts.NewChecker(set)
	for _, cfg := range cfgs {
		for _, v := range ch.Check(cfg) {
			if v.Category == contracts.CatOrdering {
				continue // ordering across '!' separators can differ at file tail
			}
			t.Errorf("training violation: %+v", v)
		}
	}
}

func TestMineEmptyInput(t *testing.T) {
	set := mineDefault(t, nil)
	if set.Len() != 0 {
		t.Errorf("empty input produced %d contracts", set.Len())
	}
	empty := lexer.Config{Name: "e"}
	set = mineDefault(t, []*lexer.Config{&empty})
	if set.Len() != 0 {
		t.Errorf("blank config produced %d contracts", set.Len())
	}
}

func TestMineCategoriesFilter(t *testing.T) {
	opts := DefaultOptions()
	opts.Categories = map[contracts.Category]bool{contracts.CatPresent: true}
	set := New(opts).Mine(figure1Corpus(t, 10))
	if set.Count(contracts.CatPresent) == 0 {
		t.Error("present mining disabled unexpectedly")
	}
	if set.Len() != set.Count(contracts.CatPresent) {
		t.Error("category filter leaked other categories")
	}
}

func TestMineDeterministic(t *testing.T) {
	cfgs := figure1Corpus(t, 10)
	a := mineDefault(t, cfgs)
	b := mineDefault(t, cfgs)
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Contracts {
		if a.Contracts[i].ID() != b.Contracts[i].ID() {
			t.Fatalf("contract %d differs: %s vs %s", i, a.Contracts[i].ID(), b.Contracts[i].ID())
		}
		if a.Contracts[i].Stats() != b.Contracts[i].Stats() {
			t.Fatalf("stats differ for %s", a.Contracts[i].ID())
		}
	}
}

// TestScoringAblation shows the §3.5 false-positive filter at work: with
// the score threshold disabled, the spurious default-route containment
// contract IS learned; with the default threshold it is not.
func TestScoringAblation(t *testing.T) {
	cfgs := figure1Corpus(t, 10)
	off := DefaultOptions()
	off.ScoreThreshold = 0 // accept everything
	setOff := New(off).Mine(cfgs)
	spurious := findRelational(setOff, "rd [ip4]:[num]", "contains", "seq [num] permit [pfx4]")
	if spurious == nil {
		t.Fatal("ablation sanity: spurious contract should exist without scoring")
	}
	setOn := mineDefault(t, cfgs)
	if findRelational(setOn, "rd [ip4]:[num]", "contains", "seq [num] permit [pfx4]") != nil {
		t.Error("spurious contract survived scoring")
	}
	if setOn.Count(contracts.CatRelation) >= setOff.Count(contracts.CatRelation) {
		t.Errorf("scoring did not reduce relational contracts: %d vs %d",
			setOn.Count(contracts.CatRelation), setOff.Count(contracts.CatRelation))
	}
}

// TestMaxFanoutBoundsCandidates ensures the fanout cap is honored and
// deterministic.
func TestMaxFanoutBoundsCandidates(t *testing.T) {
	cfgs := figure1Corpus(t, 10)
	small := DefaultOptions()
	small.MaxFanout = 1
	a := New(small).Mine(cfgs)
	b := New(small).Mine(cfgs)
	if a.Len() != b.Len() {
		t.Fatal("fanout-capped mining not deterministic")
	}
	big := DefaultOptions()
	big.MaxFanout = 1 << 16
	c := New(big).Mine(cfgs)
	if c.Count(contracts.CatRelation) < a.Count(contracts.CatRelation) {
		t.Errorf("larger fanout lost contracts: %d vs %d",
			c.Count(contracts.CatRelation), a.Count(contracts.CatRelation))
	}
}

// TestExtraRelationsAtMinerLevel drives a custom relation directly
// through mining.Options: values related when equal after doubling.
func TestExtraRelationsAtMinerLevel(t *testing.T) {
	holds := func(lhs, w relations.Value) bool {
		a, ok1 := lhs.(netdata.Num)
		b, ok2 := w.(netdata.Num)
		if !ok1 || !ok2 {
			return false
		}
		x, _ := a.Int64()
		y, _ := b.Int64()
		return y == 2*x && x != 0
	}
	opts := DefaultOptions()
	opts.ExtraRelations = []relations.Definition{{
		Rel:   "doubled",
		Holds: holds,
		NewIndex: func() relations.Index {
			return relations.NewFuncIndex("doubled", holds)
		},
	}}
	lx := lexer.MustNew()
	var cfgs []*lexer.Config
	for d := 1; d <= 8; d++ {
		text := fmt.Sprintf("half %d\nfull %d\n", 500+d, 2*(500+d))
		cfg := format.Process(fmt.Sprintf("c%d", d), []byte(text), lx, format.Options{Embed: true})
		cfgs = append(cfgs, &cfg)
	}
	set := New(opts).Mine(cfgs)
	found := false
	for _, c := range set.Contracts {
		r, ok := c.(*contracts.Relational)
		if ok && r.Rel == "doubled" {
			found = true
			if r.Evidence.Confidence != 1 {
				t.Errorf("confidence = %v", r.Evidence.Confidence)
			}
		}
	}
	if !found {
		t.Fatal("custom relation contract not mined")
	}
}

// TestMineSequenceBeyondInt64 is a regression test for sequence values
// past math.MaxInt64 (9223372036854775807). Equidistance evidence used
// to be collected in int64, so large values were silently dropped and
// the contract was never learned — and values straddling the boundary
// could wrap during subtraction. Miner and checker now both judge
// equidistance in *big.Int, so they agree on the same corpus.
func TestMineSequenceBeyondInt64(t *testing.T) {
	lx := lexer.MustNew()
	// Each config carries a 3-value arithmetic progression with step 7
	// straddling the int64 boundary: 9223372036854775800, ...807, ...814.
	mk := func(name string, vals []string) *lexer.Config {
		var b strings.Builder
		fmt.Fprintf(&b, "policer-map pm\n")
		for _, v := range vals {
			fmt.Fprintf(&b, "   rate-counter %s\n", v)
		}
		cfg := format.Process(name, []byte(b.String()), lx, format.Options{Embed: true})
		return &cfg
	}
	var cfgs []*lexer.Config
	for d := 0; d < 10; d++ {
		base, _ := new(big.Int).SetString("9223372036854775800", 10)
		base.Add(base, big.NewInt(int64(d)))
		vals := []string{
			base.String(),
			new(big.Int).Add(base, big.NewInt(7)).String(),
			new(big.Int).Add(base, big.NewInt(14)).String(),
		}
		cfgs = append(cfgs, mk(fmt.Sprintf("dev%d", d), vals))
	}
	set := mineDefault(t, cfgs)
	const wantID = "sequence|/policer-map pm/rate-counter [num]|0"
	if !hasContractID(set, wantID) {
		t.Fatalf("sequence contract with values beyond int64 not learned; got %d contracts", set.Len())
	}
	// Checker agreement: a clean config passes, a broken step beyond
	// int64 is localized to the breaking line.
	var seq *contracts.Sequence
	for _, c := range set.Contracts {
		if s, ok := c.(*contracts.Sequence); ok && c.ID() == wantID {
			seq = s
		}
	}
	ch := contracts.NewChecker(&contracts.Set{Contracts: []contracts.Contract{seq}})
	if vs := ch.Check(mk("clean", []string{"18446744073709551610", "18446744073709551617", "18446744073709551624"})); len(vs) != 0 {
		t.Errorf("clean big-valued sequence flagged: %+v", vs)
	}
	vs := ch.Check(mk("broken", []string{"18446744073709551610", "18446744073709551617", "18446744073709551625"}))
	if len(vs) != 1 || vs[0].Line != 4 {
		t.Errorf("broken big-valued sequence: violations = %+v, want 1 at line 4", vs)
	}
}

// TestMineSequenceRejectsNonArithmeticBig: values beyond int64 that are
// NOT equidistant must not be learned — with the old int64 evidence the
// column was dropped entirely, and a wrapping subtraction could have
// judged a non-arithmetic column arithmetic.
func TestMineSequenceRejectsNonArithmeticBig(t *testing.T) {
	lx := lexer.MustNew()
	var cfgs []*lexer.Config
	for d := 0; d < 10; d++ {
		text := fmt.Sprintf("policer-map pm\n   rate-counter 9223372036854775%d00\n   rate-counter 18446744073709551%d10\n   rate-counter 18446744073709551%d27\n", d, d, d)
		cfg := format.Process(fmt.Sprintf("dev%d", d), []byte(text), lx, format.Options{Embed: true})
		cfgs = append(cfgs, &cfg)
	}
	set := mineDefault(t, cfgs)
	for _, c := range set.Contracts {
		if c.Category() == contracts.CatSequence {
			t.Errorf("non-arithmetic big-valued column learned as sequence: %s", c.ID())
		}
	}
}

// TestMineConcurrentCategoryDeterminism asserts the concurrent
// per-category miners produce the same contract set, in the same
// order, as repeated runs — the fixed step-order append must hide the
// goroutine scheduling entirely.
func TestMineConcurrentCategoryDeterminism(t *testing.T) {
	cfgs := figure1Corpus(t, 12)
	opts := DefaultOptions()
	opts.ConstantLearning = true
	ref := New(opts).Mine(cfgs)
	if ref.Len() == 0 {
		t.Fatal("corpus mined no contracts")
	}
	refIDs := make([]string, 0, ref.Len())
	for _, c := range ref.Contracts {
		refIDs = append(refIDs, c.ID())
	}
	for round := 0; round < 5; round++ {
		set := New(opts).Mine(cfgs)
		if set.Len() != ref.Len() {
			t.Fatalf("round %d: %d contracts, want %d", round, set.Len(), ref.Len())
		}
		for i, c := range set.Contracts {
			if c.ID() != refIDs[i] {
				t.Fatalf("round %d: contract %d is %s, want %s", round, i, c.ID(), refIDs[i])
			}
		}
	}
}

// TestMineConcurrentCategoryPanicPropagates asserts a panicking
// category miner still fails fast — the panic is re-raised on the
// caller goroutine — when containment is off (no diagnostics
// collector, not strict), even though miners run concurrently.
func TestMineConcurrentCategoryPanicPropagates(t *testing.T) {
	defer faultinject.Reset()
	cfgs := figure1Corpus(t, 12)
	injected := errors.New("injected miner fault")
	faultinject.Set("mining.category", faultinject.PanicOn(injected, "unique"))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic was swallowed by the concurrent miners")
		}
		if err, ok := r.(error); !ok || !errors.Is(err, injected) {
			t.Fatalf("recovered %v, want the injected fault", r)
		}
	}()
	New(DefaultOptions()).Mine(cfgs)
}

// TestMineFoldPanicPropagates asserts a panic in one configuration's
// relational fold reaches the caller when containment is off (no
// diagnostics collector, not strict) and the fold runs on two workers:
// the pool re-raises it on the caller's goroutine instead of letting it
// kill the process from a worker.
func TestMineFoldPanicPropagates(t *testing.T) {
	defer faultinject.Reset()
	cfgs := figure1Corpus(t, 12)
	injected := errors.New("injected fold fault")
	faultinject.Set("mining.relational.config", faultinject.PanicOn(injected, "dev7"))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("fold panic was swallowed")
		}
		if err, ok := r.(error); !ok || !errors.Is(err, injected) {
			t.Fatalf("recovered %v, want the injected fault", r)
		}
	}()
	opts := DefaultOptions()
	opts.Parallelism = 2
	New(opts).MineContext(context.Background(), cfgs)
}

// TestMineConcurrentCategoryContainment asserts a panicking category
// miner is contained with a diagnostic when a collector is attached:
// the other categories still mine, only the faulty one is empty.
func TestMineConcurrentCategoryContainment(t *testing.T) {
	defer faultinject.Reset()
	cfgs := figure1Corpus(t, 12)
	injected := errors.New("injected miner fault")
	faultinject.Set("mining.category", faultinject.PanicOn(injected, "unique"))
	opts := DefaultOptions()
	dc := diag.New()
	opts.Diagnostics = dc
	set := New(opts).Mine(cfgs)
	if set.Len() == 0 {
		t.Fatal("containment lost every contract")
	}
	for _, c := range set.Contracts {
		if c.Category() == contracts.CatUnique {
			t.Fatalf("faulty category still produced %s", c.ID())
		}
	}
	if dc.Len() != 1 {
		t.Fatalf("diagnostics = %d, want 1", dc.Len())
	}
}
