// Package score implements Concord's dynamic scoring for relational
// contracts (§3.5). Each relation instance is scored by how unlikely it
// is to arise coincidentally (instance-level informativeness), and
// scores are aggregated across distinct values so that contracts
// generalizing over diverse instances outrank those repeating a single
// coincidence (diversity-based aggregation).
package score

import (
	"math/big"
	"slices"
	"sort"
	"strings"

	"concord/internal/netdata"
)

// Value assigns an informativeness score in [0, 10] to a single data
// value. Higher scores mean the value is less likely to match another
// value by chance:
//
//   - the default prefix 0.0.0.0/0 (or ::/0) scores 0 because it contains
//     every address; more specific prefixes score proportionally to their
//     length;
//   - small integers (0-10) are ubiquitous in configurations and score
//     low, with a step function increasing toward large, rare values;
//   - addresses and MAC values are high-entropy and score high;
//   - booleans carry almost no information;
//   - strings score with length, capped.
func Value(v netdata.Value) float64 {
	switch t := v.(type) {
	case netdata.Prefix:
		if t.Len() == 0 {
			return 0
		}
		return 10 * float64(t.Len()) / float64(t.Bits())
	case netdata.Num:
		return numScore(t.Big())
	case netdata.Hex:
		if i, ok := t.Int64(); ok {
			return numScore(big.NewInt(i))
		}
		return 8
	case netdata.Bool:
		return 0.5
	case netdata.IP:
		return 8
	case netdata.MAC:
		return 9
	case netdata.Str:
		// Digit-only strings (str() of numbers, decimal suffixes) carry
		// the same information as the number they spell; scoring them by
		// length would inflate ubiquitous small values like "10".
		if n, ok := new(big.Int).SetString(string(t), 10); ok && len(t) > 0 {
			return numScore(n)
		}
		n := len(t)
		switch {
		case n == 0:
			return 0
		case n == 1:
			return 1
		case n <= 3:
			return 3
		case n <= 8:
			return 6
		default:
			return 8
		}
	default:
		return 1
	}
}

// numScore is the paper's step function: distance from zero is a proxy
// for rarity (3852 is less likely to co-occur randomly than 1).
func numScore(i *big.Int) float64 {
	abs := new(big.Int).Abs(i)
	switch {
	case abs.Cmp(big.NewInt(10)) <= 0:
		return 0.5
	case abs.Cmp(big.NewInt(100)) <= 0:
		return 2
	case abs.Cmp(big.NewInt(1000)) <= 0:
		return 4
	case abs.Cmp(big.NewInt(100000)) <= 0:
		return 6
	default:
		return 8
	}
}

// Aggregator accumulates the diversity-weighted score of one candidate
// contract: every *distinct* left-hand-side value contributes its
// informativeness once, so a rule holding for {5, 6, 9, 11} accumulates
// four contributions while one repeating 5 accumulates a single one.
// Totals are summed in sorted key order so results are deterministic
// regardless of insertion order.
//
// The zero value is an empty aggregator. Most candidates see one or a
// few distinct values, so entries live in a small slice kept sorted by
// key; past inlineMax entries they move to a map whose sorted key order
// is cached for Total. Not safe for concurrent use, Total included.
type Aggregator struct {
	small []entry  // every entry, sorted by key, while big is nil
	big   *spilled // every entry once there are more than inlineMax
}

// inlineMax is the most entries an Aggregator keeps in its sorted
// slice; an insert there shifts up to this many entries.
const inlineMax = 32

type entry struct {
	key string
	s   float64
}

type spilled struct {
	scores map[string]float64
	keys   []string // scores' keys in sorted order; nil once a key is added
}

// Add records one relation instance whose left-hand side value is v.
// Duplicate values (by canonical key) are ignored.
func (a *Aggregator) Add(v netdata.Value) {
	a.AddInstance(v.Key(), Value(v))
}

// AddInstance records one relation instance by explicit key and score,
// for callers that score an instance as a function of both operands
// (e.g. min of the two informativeness scores). Duplicate keys keep the
// larger score — the same normalization Merge applies — so a total is a
// pure function of the instance multiset, independent of the order
// configurations are folded or how they are split across shards.
func (a *Aggregator) AddInstance(key string, s float64) {
	if b := a.big; b != nil {
		cur, ok := b.scores[key]
		if !ok {
			b.keys = nil
		} else if cur >= s {
			return
		}
		b.scores[key] = s
		return
	}
	i, found := slices.BinarySearchFunc(a.small, key, func(e entry, k string) int { return strings.Compare(e.key, k) })
	switch {
	case found:
		if s > a.small[i].s {
			a.small[i].s = s
		}
	case len(a.small) < inlineMax:
		a.small = slices.Insert(a.small, i, entry{key, s})
	default:
		scores := make(map[string]float64, 2*inlineMax)
		for _, e := range a.small {
			scores[e.key] = e.s
		}
		scores[key] = s
		a.small, a.big = nil, &spilled{scores: scores}
	}
}

// Total returns the cumulative diversity-weighted score, summed in
// byte-wise key order.
func (a *Aggregator) Total() float64 {
	total := 0.0
	if b := a.big; b != nil {
		if b.keys == nil {
			b.keys = make([]string, 0, len(b.scores))
			for k := range b.scores {
				b.keys = append(b.keys, k)
			}
			sort.Strings(b.keys)
		}
		for _, k := range b.keys {
			total += b.scores[k]
		}
		return total
	}
	for _, e := range a.small {
		total += e.s
	}
	return total
}

// Distinct returns the number of distinct values scored.
func (a *Aggregator) Distinct() int {
	if a.big != nil {
		return len(a.big.scores)
	}
	return len(a.small)
}

// Merge folds another aggregator's instances into a. Keys present in
// both keep the larger score so merging is commutative.
func (a *Aggregator) Merge(b *Aggregator) {
	if b.big != nil {
		for k, s := range b.big.scores {
			a.AddInstance(k, s)
		}
		return
	}
	for _, e := range b.small {
		a.AddInstance(e.key, e.s)
	}
}
