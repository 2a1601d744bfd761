package contracts

import (
	"sync"

	"concord/internal/intern"
	"concord/internal/lexer"
)

// CompiledSet is the immutable, check-optimized form of a contract Set,
// built once per Checker and shared by every configuration evaluation
// (and, through the core engine, by every worker of a sharded CheckAll).
// It interns the pattern strings referenced by contracts to dense
// integer IDs, buckets contracts by category and anchor pattern, and
// pre-allocates cache slots for decoded numeric parameter columns and
// transformed witness columns, so the per-configuration hot path does
// integer indexing instead of string hashing and re-decoding.
//
// Bucket layout:
//
//   - absence: Present contracts (pattern and exact) and the
//     per-configuration existence component of Unique contracts. These
//     detect *missing* lines, so they are evaluated for every
//     configuration and never skipped by the pattern index.
//   - anchored: Ordering, Sequence, and Relational contracts, grouped
//     by the interned ID of their anchor pattern (Ordering.First,
//     Sequence.Pattern, Relational.Pattern1). A configuration that
//     contains no line with the anchor pattern vacuously satisfies the
//     contract, so whole groups are skipped when the configuration's
//     pattern index proves the anchor is absent.
//   - types: TypeError contracts grouped by their type-agnostic
//     pattern. A configuration with no line lexing to that agnostic
//     pattern cannot violate the contract, so these groups are skipped
//     the same way (via the per-configuration agnostic index).
//
// A CompiledSet is safe for concurrent use: everything is read-only
// after Compile except the agnostic-pattern memo, which is a sync.Map.
type CompiledSet struct {
	// ids interns every pattern referenced by a contract (anchors and
	// witness patterns); patterns holds the reverse mapping.
	ids      map[string]int
	patterns []string

	// tab, when non-nil, is the run's string intern table, and
	// denseByTab translates its IDs to this set's dense IDs plus one
	// (0 = the pattern is referenced by no contract). Views over
	// configurations carrying the same table then index lines into the
	// anchor buckets with two array loads instead of hashing the full
	// pattern string per line.
	tab        *intern.Table
	denseByTab []int32

	// absence contracts are evaluated unconditionally (missing-line
	// detection must see configurations where the pattern is absent).
	absence []Contract

	// uniques lists the Unique contracts in set order with their IDs,
	// which key every configuration's value sites.
	uniques []uniqueCol

	// anchored[id] lists the contracts whose anchor pattern has that
	// interned ID; anchoredN is the total across all buckets.
	anchored  [][]Contract
	anchoredN int

	// typesByAg buckets type contracts by their agnostic pattern;
	// typeN is the total count. agMemo caches the TypeAgnostic
	// rewrite per pattern string across the whole corpus (the rewrite
	// is pure string work and patterns repeat heavily between
	// configurations).
	typesByAg map[string][]*TypeError
	typeN     int
	agMemo    sync.Map // pattern string -> agnostic string

	// numSlots assigns a dense slot to each (pattern, paramIdx) pair
	// used by a Sequence contract; views cache the decoded big.Int
	// column per slot so the column is decoded once per configuration
	// regardless of how many contracts read it.
	numSlots map[patternParamKey]int

	// witSlots assigns a dense slot to each (pattern, paramIdx,
	// transform) witness column used by a Relational contract.
	witSlots map[witKey]int
}

// uniqueCol is one Unique contract with its ID, computed once at
// compile time rather than per configuration or per value site.
type uniqueCol struct {
	u  *Unique
	id string
}

type patternParamKey struct {
	pattern  string
	paramIdx int
}

type witKey struct {
	pattern   string
	paramIdx  int
	transform string
}

// Compile builds the check-optimized form of the set. The set must not
// be mutated afterwards; Checker compiles its set at construction.
func Compile(set *Set) *CompiledSet { return CompileWithInterns(set, nil) }

// CompileWithInterns is Compile with the run's string intern table
// attached: every contract-referenced pattern is also interned into tab
// and a translation array from table IDs to the set's dense IDs is
// built, so per-line anchor lookup during checking becomes array
// indexing for configurations processed with the same table.
func CompileWithInterns(set *Set, tab *intern.Table) *CompiledSet {
	cs := &CompiledSet{
		ids:       make(map[string]int),
		typesByAg: make(map[string][]*TypeError),
		numSlots:  make(map[patternParamKey]int),
		witSlots:  make(map[witKey]int),
	}
	anchorOf := func(p string) int {
		id := cs.intern(p)
		for len(cs.anchored) <= id {
			cs.anchored = append(cs.anchored, nil)
		}
		return id
	}
	for _, c := range set.Contracts {
		switch c := c.(type) {
		case *Present:
			cs.absence = append(cs.absence, c)
			if !c.Exact {
				// Exact contracts match on line text (the view's byText
				// index), not on the pattern index.
				cs.intern(c.Pattern)
			}
		case *Unique:
			// The existence component is an absence check; the global
			// one reduces every configuration's sites (ReduceUnique).
			cs.absence = append(cs.absence, c)
			cs.intern(c.Pattern)
			cs.uniques = append(cs.uniques, uniqueCol{u: c, id: c.ID()})
		case *Ordering:
			id := anchorOf(c.First)
			cs.anchored[id] = append(cs.anchored[id], c)
			cs.anchoredN++
			cs.intern(c.Second)
		case *Sequence:
			id := anchorOf(c.Pattern)
			cs.anchored[id] = append(cs.anchored[id], c)
			cs.anchoredN++
			cs.numSlot(c.Pattern, c.ParamIdx)
		case *Relational:
			id := anchorOf(c.Pattern1)
			cs.anchored[id] = append(cs.anchored[id], c)
			cs.anchoredN++
			cs.intern(c.Pattern2)
			cs.witSlot(c.Pattern2, c.ParamIdx2, c.Transform2)
		case *TypeError:
			cs.typesByAg[c.Agnostic] = append(cs.typesByAg[c.Agnostic], c)
			cs.typeN++
		}
	}
	// Pad the anchored table to cover witness-only pattern IDs so views
	// can index it without bounds checks against len(ids).
	for len(cs.anchored) < len(cs.patterns) {
		cs.anchored = append(cs.anchored, nil)
	}
	if tab != nil {
		cs.tab = tab
		// Intern every referenced pattern first (growing the table),
		// then size the translation array to the final table length.
		tids := make([]int32, len(cs.patterns))
		for d, p := range cs.patterns {
			tids[d] = tab.ID(p)
		}
		cs.denseByTab = make([]int32, tab.Len()+1)
		for d, tid := range tids {
			cs.denseByTab[tid] = int32(d + 1)
		}
	}
	return cs
}

// intern returns the dense ID of a pattern, assigning one on first use.
func (cs *CompiledSet) intern(p string) int {
	if id, ok := cs.ids[p]; ok {
		return id
	}
	id := len(cs.patterns)
	cs.ids[p] = id
	cs.patterns = append(cs.patterns, p)
	return id
}

// numSlot returns the cache slot for a numeric (pattern, param) column.
func (cs *CompiledSet) numSlot(pattern string, paramIdx int) int {
	k := patternParamKey{pattern, paramIdx}
	if s, ok := cs.numSlots[k]; ok {
		return s
	}
	s := len(cs.numSlots)
	cs.numSlots[k] = s
	return s
}

// witSlot returns the cache slot for a transformed witness column.
func (cs *CompiledSet) witSlot(pattern string, paramIdx int, transform string) int {
	k := witKey{pattern, paramIdx, transform}
	if s, ok := cs.witSlots[k]; ok {
		return s
	}
	s := len(cs.witSlots)
	cs.witSlots[k] = s
	return s
}

// agnostic returns the type-agnostic rewrite of a pattern, memoized
// across configurations.
func (cs *CompiledSet) agnostic(pattern string) string {
	if v, ok := cs.agMemo.Load(pattern); ok {
		return v.(string)
	}
	ag := lexer.TypeAgnostic(pattern)
	cs.agMemo.Store(pattern, ag)
	return ag
}
