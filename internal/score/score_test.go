package score

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"concord/internal/netdata"
)

func TestDefaultPrefixScoresZero(t *testing.T) {
	p, _ := netdata.ParsePrefix4("0.0.0.0/0")
	if Value(p) != 0 {
		t.Errorf("score(0.0.0.0/0) = %v, want 0", Value(p))
	}
	p6, _ := netdata.ParsePrefix6("::/0")
	if Value(p6) != 0 {
		t.Errorf("score(::/0) = %v, want 0", Value(p6))
	}
}

func TestSpecificPrefixScoresHigher(t *testing.T) {
	p8, _ := netdata.ParsePrefix4("10.0.0.0/8")
	p24, _ := netdata.ParsePrefix4("10.1.2.0/24")
	p32, _ := netdata.ParsePrefix4("10.1.2.3/32")
	if !(Value(p8) < Value(p24) && Value(p24) < Value(p32)) {
		t.Errorf("prefix scores not monotone: /8=%v /24=%v /32=%v",
			Value(p8), Value(p24), Value(p32))
	}
	if Value(p32) != 10 {
		t.Errorf("score(/32) = %v, want 10", Value(p32))
	}
}

func TestNumStepFunction(t *testing.T) {
	small := Value(netdata.NewNum(1))
	medium := Value(netdata.NewNum(64))
	port := Value(netdata.NewNum(3394))
	huge := Value(netdata.NewNum(3000000))
	if !(small < medium && medium < port && port < huge) {
		t.Errorf("num scores not monotone: %v %v %v %v", small, medium, port, huge)
	}
}

func TestHighEntropyValues(t *testing.T) {
	ip, _ := netdata.ParseIP4("10.14.14.34")
	mac, _ := netdata.ParseMAC("00:00:0c:d3:00:6e")
	if Value(ip) < 5 || Value(mac) < 5 {
		t.Error("addresses should score high")
	}
	if Value(netdata.Bool(true)) > 1 {
		t.Error("booleans should score near zero")
	}
}

func TestStrScores(t *testing.T) {
	if Value(netdata.Str("")) != 0 {
		t.Error("empty string should score 0")
	}
	if !(Value(netdata.Str("ab")) < Value(netdata.Str("et-0/0/1-long"))) {
		t.Error("longer strings should score higher")
	}
}

func TestAggregatorDiversity(t *testing.T) {
	a := &Aggregator{}
	v := netdata.NewNum(3394)
	a.Add(v)
	a.Add(v)
	a.Add(v)
	if a.Distinct() != 1 {
		t.Errorf("Distinct = %d, want 1", a.Distinct())
	}
	single := a.Total()

	b := &Aggregator{}
	b.Add(netdata.NewNum(3394))
	b.Add(netdata.NewNum(2817))
	b.Add(netdata.NewNum(9451))
	if b.Total() <= single {
		t.Errorf("diverse rule (%v) should outscore repeated rule (%v)", b.Total(), single)
	}
	if b.Distinct() != 3 {
		t.Errorf("Distinct = %d, want 3", b.Distinct())
	}
}

func TestAggregatorSpuriousExample(t *testing.T) {
	// The paper's example: a contract whose only evidence is the default
	// prefix should accumulate no score at all.
	a := &Aggregator{}
	p, _ := netdata.ParsePrefix4("0.0.0.0/0")
	a.Add(p)
	if a.Total() != 0 {
		t.Errorf("Total = %v, want 0", a.Total())
	}
}

func TestHexAndDigitStringScores(t *testing.T) {
	h, _ := netdata.ParseHex("0x2f")
	if Value(h) <= 0 {
		t.Error("hex literal should score positively")
	}
	// Digit-only strings score like the number they spell.
	if Value(netdata.Str("10")) != Value(netdata.NewNum(10)) {
		t.Error("digit string and number should score equally")
	}
	if Value(netdata.Str("10251")) != Value(netdata.NewNum(10251)) {
		t.Error("digit string and number should score equally")
	}
	// Hex-looking strings with letters keep string scoring.
	if Value(netdata.Str("6e")) == Value(netdata.NewNum(6)) {
		t.Error("non-decimal string should not use numeric scoring")
	}
}

func TestAggregatorMerge(t *testing.T) {
	a := &Aggregator{}
	a.AddInstance("x", 5)
	a.AddInstance("y", 3)
	b := &Aggregator{}
	b.AddInstance("y", 7) // higher score for the same key wins
	b.AddInstance("z", 2)
	a.Merge(b)
	if a.Distinct() != 3 {
		t.Errorf("Distinct = %d, want 3", a.Distinct())
	}
	if got := a.Total(); got != 5+7+2 {
		t.Errorf("Total = %v, want 14", got)
	}
	// Merge is commutative on totals.
	c := &Aggregator{}
	c.AddInstance("y", 7)
	c.AddInstance("z", 2)
	d := &Aggregator{}
	d.AddInstance("x", 5)
	d.AddInstance("y", 3)
	c.Merge(d)
	if c.Total() != a.Total() {
		t.Errorf("merge not commutative: %v vs %v", c.Total(), a.Total())
	}
}

// refTotal is the aggregator's law spelled out: the largest score per
// key, summed in byte-wise sorted key order.
func refTotal(insts []entry) float64 {
	best := make(map[string]float64)
	for _, e := range insts {
		if cur, ok := best[e.key]; !ok || e.s > cur {
			best[e.key] = e.s
		}
	}
	keys := make([]string, 0, len(best))
	for k := range best {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	total := 0.0
	for _, k := range keys {
		total += best[k]
	}
	return total
}

// randInsts draws instances over distinct keys with repeats, scores
// spread over many magnitudes so that summation order shows in the
// float total.
func randInsts(rng *rand.Rand, distinct int) []entry {
	var insts []entry
	for i := 0; i < distinct; i++ {
		key := fmt.Sprintf("num:%d", rng.Intn(1<<30))
		for r := 1 + rng.Intn(3); r > 0; r-- {
			insts = append(insts, entry{key, rng.Float64() * float64(int(1)<<rng.Intn(40))})
		}
	}
	rng.Shuffle(len(insts), func(i, j int) { insts[i], insts[j] = insts[j], insts[i] })
	return insts
}

func aggOf(insts []entry) *Aggregator {
	a := &Aggregator{}
	for _, e := range insts {
		a.AddInstance(e.key, e.s)
	}
	return a
}

// sizes straddle the slice/map threshold and reach the largest
// aggregators seen on real corpora (about 2,000 distinct values).
var sizes = []int{0, 1, 2, inlineMax - 1, inlineMax, inlineMax + 1, 3 * inlineMax, 2100}

// TestAggregatorTotalSortedOrder: Total equals the sorted-key sum of
// the per-key maxima, bit for bit, under random insertion orders on
// both sides of the slice/map threshold; repeated calls agree, and a
// key added after a Total is counted.
func TestAggregatorTotalSortedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range sizes {
		insts := randInsts(rng, n)
		want := refTotal(insts)
		for trial := 0; trial < 4; trial++ {
			rng.Shuffle(len(insts), func(i, j int) { insts[i], insts[j] = insts[j], insts[i] })
			a := aggOf(insts)
			if got := a.Total(); got != want {
				t.Fatalf("%d keys, trial %d: Total = %v, want %v", n, trial, got, want)
			}
			if got := a.Total(); got != want {
				t.Fatalf("%d keys, trial %d: second Total = %v, want %v", n, trial, got, want)
			}
			if a.Distinct() > n || (n > 0 && a.Distinct() == 0) {
				t.Fatalf("%d keys: Distinct = %d", n, a.Distinct())
			}
		}
		a := aggOf(insts)
		a.Total()
		extra := entry{"zz-after-total", 3.25}
		a.AddInstance(extra.key, extra.s)
		if got, want := a.Total(), refTotal(append(insts, extra)); got != want {
			t.Fatalf("%d keys: Total after a late key = %v, want %v", n, got, want)
		}
	}
}

// TestAggregatorMergeLaws: Merge is commutative and associative, in
// Total and Distinct, for operands on either side of the threshold, and
// equals adding every instance to one aggregator.
func TestAggregatorMergeLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		// Draw three operands from a shared key pool so they overlap.
		pool := randInsts(rng, sizes[rng.Intn(len(sizes))])
		pick := func() []entry {
			var out []entry
			for _, e := range pool {
				if rng.Intn(2) == 0 {
					out = append(out, entry{e.key, rng.Float64() * 100})
				}
			}
			return out
		}
		xs, ys, zs := pick(), pick(), pick()
		all := append(append(append([]entry(nil), xs...), ys...), zs...)
		want := refTotal(all)

		ab := aggOf(xs)
		ab.Merge(aggOf(ys))
		ba := aggOf(ys)
		ba.Merge(aggOf(xs))
		if ab.Total() != ba.Total() || ab.Distinct() != ba.Distinct() {
			t.Fatalf("trial %d: a+b = %v (%d keys), b+a = %v (%d keys)", trial, ab.Total(), ab.Distinct(), ba.Total(), ba.Distinct())
		}
		left := aggOf(xs)
		left.Merge(aggOf(ys))
		left.Merge(aggOf(zs))
		bc := aggOf(ys)
		bc.Merge(aggOf(zs))
		right := aggOf(xs)
		right.Merge(bc)
		if left.Total() != want || right.Total() != want || left.Distinct() != right.Distinct() {
			t.Fatalf("trial %d: (a+b)+c = %v, a+(b+c) = %v, want %v", trial, left.Total(), right.Total(), want)
		}
		if whole := aggOf(all); whole.Distinct() != left.Distinct() {
			t.Fatalf("trial %d: merged Distinct = %d, one aggregator %d", trial, left.Distinct(), whole.Distinct())
		}
	}
}

// TestAggregatorDuplicateKeepsMax: a repeated key keeps its larger
// score whichever arrives first, in the slice form and the map form.
func TestAggregatorDuplicateKeepsMax(t *testing.T) {
	for _, fill := range []int{0, inlineMax + 5} {
		for _, order := range [][2]float64{{2, 9}, {9, 2}} {
			a := &Aggregator{}
			for i := 0; i < fill; i++ {
				a.AddInstance(fmt.Sprintf("k%03d", i), 0)
			}
			a.AddInstance("dup", order[0])
			a.AddInstance("dup", order[1])
			if a.Total() != 9 || a.Distinct() != fill+1 {
				t.Errorf("fill %d, scores %v: Total = %v, Distinct = %d, want 9, %d", fill, order, a.Total(), a.Distinct(), fill+1)
			}
			b := &Aggregator{}
			b.AddInstance("dup", 5)
			a.Merge(b)
			if a.Total() != 9 {
				t.Errorf("fill %d: merging a smaller duplicate changed Total to %v", fill, a.Total())
			}
		}
	}
}
