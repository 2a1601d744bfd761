// Map-reduce combiner protocol for contract state that spans
// configurations.
//
// Most contract categories check one configuration at a time, so a
// sharded driver can evaluate them independently and concatenate the
// results. Unique contracts are the exception: their state (the set of
// values seen so far, with the first site as witness) spans the whole
// corpus. The combiner protocol splits that state the map-reduce way:
// each shard folds its configurations, in corpus order, into a
// UniqueAccumulator (the map side), and a single Reduce over the
// per-shard accumulators, taken in shard order, emits exactly the
// violations a sequential scan of the whole corpus would have
// produced. The accumulator retains only ordered value sites —
// O(sites), not O(configuration) — which is what lets a fleet-scale
// run stream configurations instead of holding them all in memory, and
// what the worker-process backend serializes across the shard
// boundary.
package contracts

import (
	"fmt"

	"concord/internal/faultinject"
	"concord/internal/lexer"
)

// UniqueAccumulator is the map side of the combiner: one shard's fold
// of the ordered value-site lists of every unique contract.
// Configurations must be added in corpus order; accumulators are not
// safe for concurrent use. Sites can also be fed directly via AddSites
// when a caller replays cached contributions (the incremental
// check-artifact path) instead of holding the lexed configuration.
type UniqueAccumulator struct {
	ch       *Checker
	names    []string
	contribs []map[string][]UniqueSite
}

// Add extracts and folds cfg's unique-contract contributions.
func (a *UniqueAccumulator) Add(cfg *lexer.Config) {
	a.AddSites(cfg.Name, a.ch.UniqueContributions(cfg))
}

// AddSites folds a pre-extracted contribution for the named
// configuration, preserving corpus order.
func (a *UniqueAccumulator) AddSites(name string, sites map[string][]UniqueSite) {
	a.names = append(a.names, name)
	a.contribs = append(a.contribs, sites)
}

// Len returns the number of configurations folded in.
func (a *UniqueAccumulator) Len() int { return len(a.names) }

// Entry returns the i'th folded configuration's name and site lists,
// in fold order. It exposes the accumulator's contents for wire
// serialization: a worker process folds its shard locally, ships the
// entries, and the parent replays them through AddSites on a fresh
// accumulator, so Reduce sees exactly the state a local fold would
// have produced. The returned map is the accumulator's own — callers
// must not mutate it.
func (a *UniqueAccumulator) Entry(i int) (string, map[string][]UniqueSite) {
	return a.names[i], a.contribs[i]
}

// UniqueCombiner creates per-shard accumulators and reduces them, in
// shard order, to the violations of the set's unique contracts. For any
// partition of a corpus into contiguous shards, reducing the per-shard
// accumulators reproduces CheckUniqueAcross over the concatenated
// corpus, including first-seen-wins witness ordering.
type UniqueCombiner struct {
	ch *Checker
}

// UniqueCombiner returns the checker's combiner for cross-
// configuration uniqueness.
func (ch *Checker) UniqueCombiner() *UniqueCombiner {
	return &UniqueCombiner{ch: ch}
}

// NewAccumulator creates an empty per-shard accumulator.
func (c *UniqueCombiner) NewAccumulator() *UniqueAccumulator {
	return &UniqueAccumulator{ch: c.ch}
}

// Reduce merges the accumulators in shard order and evaluates every
// unique contract over the concatenated site lists: the first site of
// a value is the witness, every later site a violation. Panics inside
// a contract are contained exactly as in the direct scan (lenient
// skips the contract with a diagnostic, strict re-raises). Passing an
// accumulator from a different combiner is a programming error.
func (c *UniqueCombiner) Reduce(accs []*UniqueAccumulator) []Violation {
	ch := c.ch
	var names []string
	var contribs []map[string][]UniqueSite
	for _, a := range accs {
		names = append(names, a.names...)
		contribs = append(contribs, a.contribs...)
	}
	var out []Violation
	for _, u := range ch.uniqueContracts() {
		u := u
		ch.contained(u, "", func() {
			faultinject.At("contracts.check.unique_global", u.ID())
			type site struct {
				file string
				line int
			}
			seen := make(map[string]site)
			for ci := range contribs {
				for _, s := range contribs[ci][u.ID()] {
					if prev, dup := seen[s.Key]; dup {
						out = append(out, violation(u, names[ci], s.Line,
							fmt.Sprintf("value %s duplicates %s:%d", s.Display, prev.file, prev.line)))
						continue
					}
					seen[s.Key] = site{file: names[ci], line: s.Line}
				}
			}
		})
	}
	SortViolations(out)
	return out
}
