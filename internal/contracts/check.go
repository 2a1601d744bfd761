package contracts

import (
	"fmt"
	"math/big"
	"sort"
	"time"

	"concord/internal/diag"
	"concord/internal/faultinject"
	"concord/internal/intern"
	"concord/internal/lexer"
	"concord/internal/netdata"
	"concord/internal/relations"
	"concord/internal/telemetry"
)

// Violation reports one contract failure localized to a configuration
// line (Line is 1-based; 0 means the violation concerns the whole file,
// e.g. a missing line — render those with Location, which omits the
// line number).
type Violation struct {
	Category   Category `json:"category"`
	ContractID string   `json:"contract_id"`
	Contract   string   `json:"contract"`
	File       string   `json:"file"`
	Line       int      `json:"line,omitempty"`
	Detail     string   `json:"detail"`
}

// FileLevel reports whether the violation concerns the whole file
// rather than a specific line (e.g. a required line is missing).
func (v *Violation) FileLevel() bool { return v.Line <= 0 }

// Location renders the violation's position: "file:line" for line
// violations, just "file" for file-level ones (never "file:0").
func (v *Violation) Location() string {
	if v.FileLevel() {
		return v.File
	}
	return fmt.Sprintf("%s:%d", v.File, v.Line)
}

// Checker evaluates a contract set against configurations (§3.8). It
// compiles the set once at construction (see CompiledSet) and is safe
// for concurrent use: per-configuration state lives on the stack, so
// one checker can be shared across a worker pool. The contract set must
// not be mutated after the checker is built.
type Checker struct {
	set        *Set
	cs         *CompiledSet
	transforms map[string]relations.Transform
	custom     map[relations.Rel]func(lhs, witness netdata.Value) bool
	rec        *telemetry.Recorder
	dc         *diag.Collector
	strict     bool
	// linear selects the pre-compilation reference strategy
	// (checkLinear and the linear branches of coverage and equals
	// matching). Only tests set it, to diff the compiled path against.
	linear  bool
	interns *intern.Table
}

// CheckerOption customizes a checker built by NewChecker.
type CheckerOption func(*Checker)

// WithTransforms selects a custom transformation registry (it must
// include every transform named by the set's relational contracts).
// Without this option the checker uses relations.DefaultTransforms.
func WithTransforms(ts []relations.Transform) CheckerOption {
	return func(ch *Checker) {
		m := make(map[string]relations.Transform, len(ts))
		for _, t := range ts {
			m[t.Name] = t
		}
		ch.transforms = m
	}
}

// WithRelations supplies user-defined relation definitions; they must
// cover every non-built-in relation named by the set's contracts.
func WithRelations(defs []relations.Definition) CheckerOption {
	return func(ch *Checker) {
		if len(defs) == 0 {
			return
		}
		if ch.custom == nil {
			ch.custom = make(map[relations.Rel]func(lhs, witness netdata.Value) bool, len(defs))
		}
		for _, d := range defs {
			ch.custom[d.Rel] = d.Holds
		}
	}
}

// WithTelemetry attaches a recorder; the checker counts contracts
// evaluated, contracts skipped by the pattern index, violations found,
// index build time, and witness-cache hits and misses (check.*
// counters).
func WithTelemetry(rec *telemetry.Recorder) CheckerOption {
	return func(ch *Checker) { ch.rec = rec }
}

// WithDiagnostics attaches a collector and enables per-contract fault
// containment: a contract whose evaluation panics is skipped for the
// configuration (or batch) being checked, recorded as an error
// diagnostic and a check.contracts_skipped count. Without a collector
// — or with WithStrict — panics propagate to the caller.
func WithDiagnostics(dc *diag.Collector) CheckerOption {
	return func(ch *Checker) { ch.dc = dc }
}

// WithStrict disables per-contract containment even when a diagnostics
// collector is attached, letting panics propagate so strict callers
// fail fast.
func WithStrict(strict bool) CheckerOption {
	return func(ch *Checker) { ch.strict = strict }
}

// WithInterns attaches the run's string intern table (the one that
// assigned PatternID values to the configurations being checked).
// Contract-referenced patterns are interned into it at compile time, so
// the per-line anchor lookup in the view index becomes array indexing
// instead of string hashing. Configurations carrying a different table
// (or none) silently fall back to the string path; results are
// identical either way.
func WithInterns(tab *intern.Table) CheckerOption {
	return func(ch *Checker) { ch.interns = tab }
}

// NewChecker builds a checker for the given contract set, compiling the
// set into its indexed form. With no options it uses the default
// transformation registry; see WithTransforms, WithRelations, and
// WithTelemetry.
func NewChecker(set *Set, opts ...CheckerOption) *Checker {
	ch := &Checker{set: set}
	for _, o := range opts {
		o(ch)
	}
	if ch.transforms == nil {
		WithTransforms(relations.DefaultTransforms())(ch)
	}
	start := time.Now()
	ch.cs = CompileWithInterns(set, ch.interns)
	ch.rec.Add("check.compile_ns", time.Since(start).Nanoseconds())
	return ch
}

// ForRequest returns a checker that shares the receiver's compiled set
// — no recompilation, no new indexes — but routes telemetry and
// contained-fault diagnostics to request-scoped sinks (either may be
// nil). A resident server compiles one checker per contract set and
// forks it per request, so concurrent requests share the compiled
// state while keeping their own spans and diagnostics.
func (ch *Checker) ForRequest(rec *telemetry.Recorder, dc *diag.Collector) *Checker {
	fork := *ch
	fork.rec = rec
	fork.dc = dc
	return &fork
}

// holds evaluates a relation, consulting custom definitions for
// non-built-in names.
func (ch *Checker) holds(rel relations.Rel, lhs, witness netdata.Value) bool {
	if f, ok := ch.custom[rel]; ok {
		return f(lhs, witness)
	}
	return rel.Holds(lhs, witness)
}

// view is the per-configuration evaluation state: the pattern index
// (interned pattern ID -> line indexes), the agnostic-pattern index for
// type contracts, and lazily decoded numeric and witness columns. All
// of it is built against the checker's CompiledSet, computed once per
// configuration and shared across every contract evaluation.
type view struct {
	cfg *lexer.Config
	cs  *CompiledSet
	// byID maps interned pattern IDs to line indexes.
	byID [][]int
	// presentIDs lists the interned pattern IDs with at least one line,
	// in first-appearance order (deterministic per configuration).
	presentIDs []int
	// byAg maps agnostic patterns (with at least one type contract) to
	// line indexes; built only when the set has type contracts.
	byAg map[string][]int
	// byText is the exact-text index for constant contracts, built
	// lazily on first use.
	byText map[string][]int
	// numeric caches decoded big.Int columns per CompiledSet numSlot.
	numeric []numericCol
	// witness caches transformed witness columns (and their equality
	// key indexes) per CompiledSet witSlot.
	witness []witCol
	// hits/misses count witness-cache lookups, folded into the
	// checker's recorder when the view is discarded.
	hits, misses int64
}

type numericCol struct {
	done bool
	vals []*big.Int
	at   []int
}

// witCol is one cached witness column: the transformed values in line
// order and, when an equals contract reads the column, a key index
// (value key -> line indexes in column order) so equality witness
// lookup is a hash probe instead of a scan that re-stringifies every
// witness value per forall line.
type witCol struct {
	done bool
	ws   []witness
	eq   map[string][]int
}

type witness struct {
	line  int
	value netdata.Value
}

// newView builds the per-configuration indexes in one pass over the
// lines. Index build time accumulates under check.index_build_ns.
func (ch *Checker) newView(cfg *lexer.Config) *view {
	var start time.Time
	if ch.rec != nil {
		start = time.Now()
	}
	cs := ch.cs
	v := &view{
		cfg:     cfg,
		cs:      cs,
		byID:    make([][]int, len(cs.patterns)),
		numeric: make([]numericCol, len(cs.numSlots)),
	}
	if cs.typeN > 0 {
		v.byAg = make(map[string][]int)
	}
	if len(cs.witSlots) > 0 {
		v.witness = make([]witCol, len(cs.witSlots))
	}
	// With the run's intern table attached (and matching this config's),
	// the anchor lookup is two array loads off the line's PatternID; the
	// string map remains the fallback for foreign or hand-built lines.
	dense := cs.denseByTab
	if cfg.Interns != cs.tab {
		dense = nil
	}
	for i := range cfg.Lines {
		line := &cfg.Lines[i]
		p := line.Pattern
		var id int
		var ok bool
		if tid := int(line.PatternID); dense != nil && tid > 0 && tid < len(dense) {
			d := dense[tid]
			id, ok = int(d)-1, d != 0
		} else {
			id, ok = cs.ids[p]
		}
		if ok {
			if len(v.byID[id]) == 0 {
				v.presentIDs = append(v.presentIDs, id)
			}
			v.byID[id] = append(v.byID[id], i)
		}
		if cs.typeN > 0 && len(line.Params) > 0 {
			ag := cs.agnostic(p)
			if _, hasContracts := cs.typesByAg[ag]; hasContracts {
				v.byAg[ag] = append(v.byAg[ag], i)
			}
		}
	}
	if ch.rec != nil {
		ch.rec.Add("check.index_build_ns", time.Since(start).Nanoseconds())
	}
	return v
}

// lines returns the line indexes whose pattern equals p. Patterns not
// referenced by any contract have no interned ID and return nil, which
// is correct: nothing ever asks for them.
func (v *view) lines(p string) []int {
	id, ok := v.cs.ids[p]
	if !ok {
		return nil
	}
	return v.byID[id]
}

// matches returns the line indexes matching a present contract,
// consulting the exact-text index for constant contracts.
func (v *view) matches(c *Present) []int {
	if !c.Exact {
		return v.lines(c.Pattern)
	}
	if v.byText == nil {
		v.byText = make(map[string][]int)
		for i := range v.cfg.Lines {
			t := v.cfg.Lines[i].Text
			v.byText[t] = append(v.byText[t], i)
		}
	}
	return v.byText[c.Pattern]
}

// values returns the transformed parameter values for all lines of a
// pattern, caching the column in its compiled witness slot so it is
// computed once per configuration no matter how many contracts share
// it.
func (v *view) values(ch *Checker, pattern string, paramIdx int, transform string) []witness {
	col := v.column(ch, pattern, paramIdx, transform)
	if col == nil {
		// A column no relational contract registered (possible only for
		// hand-constructed calls); compute without caching.
		return v.computeWitnesses(ch, pattern, paramIdx, transform)
	}
	return col.ws
}

// column returns the cached witness column for a registered slot, or
// nil when the (pattern, param, transform) triple has no slot.
func (v *view) column(ch *Checker, pattern string, paramIdx int, transform string) *witCol {
	slot, ok := v.cs.witSlots[witKey{pattern, paramIdx, transform}]
	if !ok {
		return nil
	}
	col := &v.witness[slot]
	if col.done {
		v.hits++
		return col
	}
	v.misses++
	col.ws = v.computeWitnesses(ch, pattern, paramIdx, transform)
	col.done = true
	return col
}

// equalsIndex returns the column's key index, building it on first use.
func (col *witCol) equalsIndex() map[string][]int {
	if col.eq == nil {
		col.eq = make(map[string][]int, len(col.ws))
		for _, w := range col.ws {
			k := w.value.Key()
			col.eq[k] = append(col.eq[k], w.line)
		}
	}
	return col.eq
}

func (v *view) computeWitnesses(ch *Checker, pattern string, paramIdx int, transform string) []witness {
	tr, trOK := ch.transforms[transform]
	var ws []witness
	for _, li := range v.lines(pattern) {
		line := &v.cfg.Lines[li]
		if paramIdx >= len(line.Params) || !trOK {
			continue
		}
		tv, ok := tr.Apply(line.Params[paramIdx].Value)
		if !ok {
			continue
		}
		ws = append(ws, witness{line: li, value: tv})
	}
	return ws
}

// ConfigCheck is everything one configuration contributes to a check:
// what Check, Coverage and UniqueContributions return for it.
type ConfigCheck struct {
	Violations []Violation
	Coverage   *CoverageResult
	Unique     map[string][]UniqueSite
}

// CheckConfig is the engine's one pass over a configuration: one view
// (pattern index, decoded numeric and witness columns) serves the
// check, the coverage and the Unique site extraction. Every contract
// keeps its own containment and fault-injection site, so the result and
// its diagnostics equal those of the three separate calls.
func (ch *Checker) CheckConfig(cfg *lexer.Config) ConfigCheck {
	v := ch.newView(cfg)
	r := ConfigCheck{Violations: ch.checkView(v), Coverage: ch.coverView(v), Unique: ch.uniqueSites(v)}
	ch.flushCache(v)
	return r
}

// Check evaluates every per-configuration contract against cfg and
// returns the violations in deterministic order. Cross-configuration
// unique contracts are evaluated by CheckAll. With WithDiagnostics
// (and not WithStrict), a contract whose evaluation panics is skipped
// for this configuration with a diagnostic instead of crashing the
// check.
//
// The default strategy is the compiled hot path: absence contracts
// (present, unique existence) are always evaluated, while ordering,
// sequence, relational, and type contract groups whose anchor pattern
// the view's index proves absent are skipped wholesale (they are
// vacuously satisfied). The linear reference strategy (checkLinear)
// produces identical violations.
func (ch *Checker) Check(cfg *lexer.Config) []Violation {
	v := ch.newView(cfg)
	out := ch.checkView(v)
	ch.flushCache(v)
	return out
}

// checkView is Check's body over an already built view.
func (ch *Checker) checkView(v *view) []Violation {
	var out []Violation
	if ch.linear {
		out = ch.checkLinear(v)
	} else {
		out = ch.checkCompiled(v)
	}
	SortViolations(out)
	ch.rec.Add("check.violations", int64(len(out)))
	return out
}

// checkLinear is the pre-compilation strategy: every contract of the
// set is evaluated in set order. Kept as the reference the tests diff
// the compiled path against.
func (ch *Checker) checkLinear(v *view) []Violation {
	var out []Violation
	for _, c := range ch.set.Contracts {
		c := c
		ch.contained(c, v.cfg.Name, func() {
			faultinject.At("contracts.check.contract", c.ID())
			switch c := c.(type) {
			case *Present:
				out = append(out, ch.checkPresent(v, c)...)
			case *Ordering:
				out = append(out, ch.checkOrdering(v, c)...)
			case *TypeError:
				out = append(out, ch.checkTypeScan(v, c)...)
			case *Sequence:
				out = append(out, ch.checkSequence(v, c)...)
			case *Unique:
				out = append(out, ch.checkUniqueExistence(v, c)...)
			case *Relational:
				out = append(out, ch.checkRelational(v, c)...)
			}
		})
	}
	ch.rec.Add("check.contracts_evaluated", int64(len(ch.set.Contracts)))
	return out
}

// checkCompiled is the indexed strategy (see Check).
func (ch *Checker) checkCompiled(v *view) []Violation {
	cs := ch.cs
	var out []Violation
	evaluated := 0
	eval := func(c Contract, fn func()) {
		evaluated++
		ch.contained(c, v.cfg.Name, func() {
			faultinject.At("contracts.check.contract", c.ID())
			fn()
		})
	}
	for _, c := range cs.absence {
		switch c := c.(type) {
		case *Present:
			eval(c, func() { out = append(out, ch.checkPresent(v, c)...) })
		case *Unique:
			eval(c, func() { out = append(out, ch.checkUniqueExistence(v, c)...) })
		}
	}
	for _, id := range v.presentIDs {
		for _, c := range cs.anchored[id] {
			switch c := c.(type) {
			case *Ordering:
				eval(c, func() { out = append(out, ch.checkOrdering(v, c)...) })
			case *Sequence:
				eval(c, func() { out = append(out, ch.checkSequence(v, c)...) })
			case *Relational:
				eval(c, func() { out = append(out, ch.checkRelational(v, c)...) })
			}
		}
	}
	for ag, lines := range v.byAg {
		for _, c := range cs.typesByAg[ag] {
			c := c
			eval(c, func() { out = append(out, ch.checkTypeLines(v, c, lines)...) })
		}
	}
	ch.rec.Add("check.contracts_evaluated", int64(evaluated))
	ch.rec.Add("check.contracts_skipped_by_index", int64(len(ch.set.Contracts)-evaluated))
	return out
}

// contained runs one contract's evaluation with panic containment when
// a diagnostics collector is attached and strict mode is off: a
// recovered panic skips the contract for the current configuration (or
// batch), recording an error diagnostic and a check.contracts_skipped
// count. Otherwise the panic propagates unchanged.
func (ch *Checker) contained(c Contract, source string, eval func()) {
	if ch.dc == nil || ch.strict {
		eval()
		return
	}
	defer func() {
		if r := recover(); r != nil {
			d := diag.FromPanic("check", source, r)
			d.Message = "contract " + c.ID() + " skipped: " + d.Message
			ch.dc.Add(d)
			ch.rec.Add("check.contracts_skipped", 1)
		}
	}()
	eval()
}

// flushCache folds a view's witness-cache statistics into the recorder.
func (ch *Checker) flushCache(v *view) {
	if ch.rec == nil || v.hits+v.misses == 0 {
		return
	}
	ch.rec.Add("check.witness_cache.hits", v.hits)
	ch.rec.Add("check.witness_cache.misses", v.misses)
}

// CheckAll evaluates the full set against a batch of configurations,
// including the cross-configuration uniqueness component of unique
// contracts by the CheckUniqueAcross walk: the whole-batch reference
// the engine's check is tested against.
func (ch *Checker) CheckAll(cfgs []*lexer.Config) []Violation {
	var out []Violation
	for _, cfg := range cfgs {
		out = append(out, ch.Check(cfg)...)
	}
	out = append(out, ch.checkUniqueGlobal(cfgs)...)
	SortViolations(out)
	return out
}

// SortViolations orders violations by file, then line, then contract
// ID: the one report order every check path emits.
func SortViolations(vs []Violation) {
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].File != vs[j].File {
			return vs[i].File < vs[j].File
		}
		if vs[i].Line != vs[j].Line {
			return vs[i].Line < vs[j].Line
		}
		return vs[i].ContractID < vs[j].ContractID
	})
}

func violation(c Contract, file string, line int, detail string) Violation {
	return Violation{
		Category:   c.Category(),
		ContractID: c.ID(),
		Contract:   c.String(),
		File:       file,
		Line:       line,
		Detail:     detail,
	}
}

func (ch *Checker) checkPresent(v *view, c *Present) []Violation {
	if len(v.matches(c)) > 0 {
		return nil
	}
	return []Violation{violation(c, v.cfg.Name, 0,
		fmt.Sprintf("no line matches required pattern %s", c.Display))}
}

// successor returns the index of the line following li within the same
// (config vs. metadata) segment, or -1.
func successor(cfg *lexer.Config, li int) int {
	next := li + 1
	if next >= len(cfg.Lines) || cfg.Lines[next].Meta != cfg.Lines[li].Meta {
		return -1
	}
	return next
}

func (ch *Checker) checkOrdering(v *view, c *Ordering) []Violation {
	var out []Violation
	for _, li := range v.lines(c.First) {
		next := successor(v.cfg, li)
		if next < 0 || v.cfg.Lines[next].Pattern != c.Second {
			line := &v.cfg.Lines[li]
			out = append(out, violation(c, v.cfg.Name, line.Num,
				fmt.Sprintf("line %q is not followed by a line matching %s", line.Raw, c.DisplaySecond)))
		}
	}
	return out
}

// checkTypeScan is the pre-compilation type check: it scans every line
// of the configuration, recomputing the agnostic pattern per line.
func (ch *Checker) checkTypeScan(v *view, c *TypeError) []Violation {
	var out []Violation
	for i := range v.cfg.Lines {
		line := &v.cfg.Lines[i]
		if c.ParamIdx >= len(line.Params) {
			continue
		}
		if line.Params[c.ParamIdx].Type != c.BadType {
			continue
		}
		if lexer.TypeAgnostic(line.Pattern) != c.Agnostic {
			continue
		}
		out = append(out, typeViolation(v, c, line))
	}
	return out
}

// checkTypeLines is the indexed type check: lines is the view's
// agnostic-index bucket for c.Agnostic, so the per-line agnostic
// rewrite is already done.
func (ch *Checker) checkTypeLines(v *view, c *TypeError, lines []int) []Violation {
	var out []Violation
	for _, i := range lines {
		line := &v.cfg.Lines[i]
		if c.ParamIdx >= len(line.Params) {
			continue
		}
		if line.Params[c.ParamIdx].Type != c.BadType {
			continue
		}
		out = append(out, typeViolation(v, c, line))
	}
	return out
}

func typeViolation(v *view, c *TypeError, line *lexer.Line) Violation {
	return violation(c, v.cfg.Name, line.Num,
		fmt.Sprintf("parameter %s has forbidden type [%s] (expected one of %v)",
			lexer.VarName(c.ParamIdx), c.BadType, c.GoodTypes))
}

// numericValues returns the decoded big.Int column of a numeric
// parameter for every line of a pattern, in line order, paired with
// line indexes. The column is decoded once per configuration and
// cached in the view's compiled slot; callers must not mutate it.
func (v *view) numericValues(pattern string, paramIdx int) (vals []*big.Int, at []int) {
	slot, ok := v.cs.numSlots[patternParamKey{pattern, paramIdx}]
	if !ok {
		return decodeNumeric(v.cfg, v.lines(pattern), paramIdx)
	}
	col := &v.numeric[slot]
	if !col.done {
		col.vals, col.at = decodeNumeric(v.cfg, v.lines(pattern), paramIdx)
		col.done = true
	}
	return col.vals, col.at
}

// decodeNumeric extracts the big.Int values of a numeric parameter for
// the given line indexes.
func decodeNumeric(cfg *lexer.Config, lines []int, paramIdx int) (vals []*big.Int, at []int) {
	for _, li := range lines {
		line := &cfg.Lines[li]
		if paramIdx >= len(line.Params) {
			continue
		}
		n, ok := line.Params[paramIdx].Value.(netdata.Num)
		if !ok {
			continue
		}
		vals = append(vals, n.Big())
		at = append(at, li)
	}
	return vals, at
}

// equidistant reports whether consecutive differences are all equal and
// nonzero. Fewer than two values are trivially equidistant.
func equidistant(vals []*big.Int) bool {
	if len(vals) < 2 {
		return true
	}
	diff := new(big.Int).Sub(vals[1], vals[0])
	if diff.Sign() == 0 {
		return false
	}
	for i := 2; i < len(vals); i++ {
		d := new(big.Int).Sub(vals[i], vals[i-1])
		if d.Cmp(diff) != 0 {
			return false
		}
	}
	return true
}

func (ch *Checker) checkSequence(v *view, c *Sequence) []Violation {
	vals, at := v.numericValues(c.Pattern, c.ParamIdx)
	if len(vals) < 2 || equidistant(vals) {
		return nil
	}
	// Localize to the first value that breaks the step. The step is the
	// first consecutive difference; a zero step is itself the break, so
	// the second value (the first duplicate) is the violation — even
	// when later differences vary.
	diff := new(big.Int).Sub(vals[1], vals[0])
	if diff.Sign() == 0 {
		line := &v.cfg.Lines[at[1]]
		return []Violation{violation(c, v.cfg.Name, line.Num,
			fmt.Sprintf("value %s repeats the previous value (sequence step is zero)", vals[1]))}
	}
	for i := 2; i < len(vals); i++ {
		d := new(big.Int).Sub(vals[i], vals[i-1])
		if d.Cmp(diff) != 0 {
			line := &v.cfg.Lines[at[i]]
			return []Violation{violation(c, v.cfg.Name, line.Num,
				fmt.Sprintf("value %s breaks the sequence step %s", vals[i], diff))}
		}
	}
	return nil // unreachable: a nonzero-step non-equidistant column has a break
}

// checkUniqueExistence enforces the per-configuration existence
// component of a unique contract. The violation is file-level (no
// line): there is no line to point at when the definition is missing.
func (ch *Checker) checkUniqueExistence(v *view, c *Unique) []Violation {
	if len(v.lines(c.Pattern)) > 0 {
		return nil
	}
	return []Violation{violation(c, v.cfg.Name, 0,
		fmt.Sprintf("no line defines the unique parameter of %s", c.Display))}
}

// CheckUniqueAcross evaluates only the cross-configuration uniqueness
// component of the set's unique contracts by walking the lexed corpus:
// the reference the engine's reduce (ReduceUnique) is tested against.
func (ch *Checker) CheckUniqueAcross(cfgs []*lexer.Config) []Violation {
	out := ch.checkUniqueGlobal(cfgs)
	SortViolations(out)
	return out
}

// checkUniqueGlobal enforces global value uniqueness across the batch.
// Each configuration is indexed by pattern once; every unique contract
// then reads only the lines of its own pattern instead of scanning the
// whole batch.
func (ch *Checker) checkUniqueGlobal(cfgs []*lexer.Config) []Violation {
	if len(ch.cs.uniques) == 0 {
		return nil
	}
	// byCfg[ci] maps interned pattern IDs to line indexes of cfgs[ci],
	// restricted to the patterns unique contracts anchor on.
	wanted := make(map[string]int, len(ch.cs.uniques))
	for _, c := range ch.cs.uniques {
		if id, ok := ch.cs.ids[c.u.Pattern]; ok {
			wanted[c.u.Pattern] = id
		}
	}
	byCfg := make([]map[int][]int, len(cfgs))
	for ci, cfg := range cfgs {
		idx := make(map[int][]int)
		for i := range cfg.Lines {
			if id, ok := wanted[cfg.Lines[i].Pattern]; ok {
				idx[id] = append(idx[id], i)
			}
		}
		byCfg[ci] = idx
	}
	var out []Violation
	for _, c := range ch.cs.uniques {
		u := c.u
		id, ok := wanted[u.Pattern]
		if !ok {
			continue
		}
		ch.contained(u, "", func() {
			faultinject.At("contracts.check.unique_global", c.id)
			type site struct {
				file string
				line int
			}
			seen := make(map[string]site)
			for ci, cfg := range cfgs {
				for _, i := range byCfg[ci][id] {
					line := &cfg.Lines[i]
					if u.ParamIdx >= len(line.Params) {
						continue
					}
					key := line.Params[u.ParamIdx].Value.Key()
					if prev, dup := seen[key]; dup {
						out = append(out, violation(u, cfg.Name, line.Num,
							fmt.Sprintf("value %s duplicates %s:%d",
								line.Params[u.ParamIdx].Value, prev.file, prev.line)))
						continue
					}
					seen[key] = site{file: cfg.Name, line: line.Num}
				}
			}
		})
	}
	return out
}

// UniqueSite is one occurrence of a unique contract's parameter within
// a configuration: the value's canonical key (the uniqueness identity),
// its display rendering (for violation details), and the 1-based line
// number. Sites are always listed in line order, so a merge over
// per-config site lists reproduces the first-seen-wins semantics of a
// direct scan.
type UniqueSite struct {
	Key     string
	Display string
	Line    int
}

// UniqueContributions extracts, for every unique contract of the set,
// the ordered value sites of one configuration (CheckConfig's Unique).
// ReduceUnique over it yields exactly the violations a direct
// checkUniqueGlobal scan over the same configuration would contribute.
func (ch *Checker) UniqueContributions(cfg *lexer.Config) map[string][]UniqueSite {
	return ch.uniqueSites(ch.newView(cfg))
}

// uniqueSites reads every Unique contract's value sites off the view's
// pattern index, in line order. Contracts sharing an ID share one site
// list, which each of them reduces.
func (ch *Checker) uniqueSites(v *view) map[string][]UniqueSite {
	out := make(map[string][]UniqueSite, len(ch.cs.uniques))
	for _, c := range ch.cs.uniques {
		if _, done := out[c.id]; done {
			continue
		}
		for _, li := range v.lines(c.u.Pattern) {
			line := &v.cfg.Lines[li]
			if c.u.ParamIdx >= len(line.Params) {
				continue
			}
			val := line.Params[c.u.ParamIdx].Value
			out[c.id] = append(out[c.id], UniqueSite{Key: val.Key(), Display: val.String(), Line: line.Num})
		}
	}
	return out
}

// ReduceUnique is the map-reduce form of CheckUniqueAcross, and the one
// every engine check path runs: the map side is each configuration's
// CheckConfig sites (or their check-artifact replay), and this reduce
// reads n configurations' names and sites through at, in corpus order.
// The first site of a value is the witness, every later site a
// violation, so for any split of the corpus into contiguous shards,
// reducing the concatenated per-config sites reproduces the
// CheckUniqueAcross reference over the whole corpus. Panics inside a
// contract are contained exactly as in the direct scan (lenient skips
// the contract with a diagnostic, strict re-raises).
func (ch *Checker) ReduceUnique(n int, at func(i int) (name string, sites map[string][]UniqueSite)) []Violation {
	var out []Violation
	for _, c := range ch.cs.uniques {
		u, id := c.u, c.id
		ch.contained(u, "", func() {
			faultinject.At("contracts.check.unique_global", id)
			type site struct {
				file string
				line int
			}
			seen := make(map[string]site)
			for i := 0; i < n; i++ {
				name, sites := at(i)
				for _, s := range sites[id] {
					if prev, dup := seen[s.Key]; dup {
						out = append(out, violation(u, name, s.Line,
							fmt.Sprintf("value %s duplicates %s:%d", s.Display, prev.file, prev.line)))
						continue
					}
					seen[s.Key] = site{file: name, line: s.Line}
				}
			}
		})
	}
	SortViolations(out)
	return out
}

// equalsFast reports whether an equals contract can use the hash-based
// witness index: the built-in Equals semantics is exactly key equality,
// so the index is valid unless a user definition overrides Equals.
// The linear reference keeps the pre-compilation pairwise evaluation
// so it stays faithful.
func (ch *Checker) equalsFast(c *Relational) bool {
	if ch.linear || c.Rel != relations.Equals {
		return false
	}
	_, overridden := ch.custom[relations.Equals]
	return !overridden
}

// selfPair reports whether the contract's forall and witness columns
// are the same (pattern, parameter) — the case where a parameter must
// not witness itself.
func selfPair(c *Relational) bool {
	return c.Pattern2 == c.Pattern1 && c.ParamIdx2 == c.ParamIdx1
}

func (ch *Checker) checkRelational(v *view, c *Relational) []Violation {
	l1s := v.lines(c.Pattern1)
	if len(l1s) == 0 {
		return nil // vacuously true
	}
	t1, ok := ch.transforms[c.Transform1]
	if !ok {
		return []Violation{violation(c, v.cfg.Name, 0,
			fmt.Sprintf("unknown transform %q", c.Transform1))}
	}
	// Equality contracts use the column's key index: one key
	// stringification per forall line instead of one per (forall,
	// witness) pair.
	var eq map[string][]int
	if ch.equalsFast(c) {
		if col := v.column(ch, c.Pattern2, c.ParamIdx2, c.Transform2); col != nil {
			eq = col.equalsIndex()
		}
	}
	var wits []witness
	if eq == nil {
		wits = v.values(ch, c.Pattern2, c.ParamIdx2, c.Transform2)
	}
	self := selfPair(c)
	var out []Violation
	for _, li := range l1s {
		line := &v.cfg.Lines[li]
		if c.ParamIdx1 >= len(line.Params) {
			continue
		}
		v1, ok := t1.Apply(line.Params[c.ParamIdx1].Value)
		if !ok {
			continue
		}
		found := false
		if eq != nil {
			matches := eq[v1.Key()]
			if self {
				// A parameter is not its own witness: some other line
				// must carry the matching value.
				found = len(matches) > 1 || (len(matches) == 1 && matches[0] != li)
			} else {
				found = len(matches) > 0
			}
		} else {
			for _, w := range wits {
				if w.line == li && self {
					continue // a parameter is not its own witness
				}
				if ch.holds(c.Rel, v1, w.value) {
					found = true
					break
				}
			}
		}
		if !found {
			out = append(out, violation(c, v.cfg.Name, line.Num,
				fmt.Sprintf("no witness matching %s relates to value %s",
					c.Display2, line.Params[c.ParamIdx1].Value)))
		}
	}
	return out
}

// FindWitness reports the witness line indexes satisfying the contract
// for the forall line at index li, used by coverage analysis.
func (ch *Checker) findWitnesses(v *view, c *Relational, li int) []int {
	line := &v.cfg.Lines[li]
	if c.ParamIdx1 >= len(line.Params) {
		return nil
	}
	t1, ok := ch.transforms[c.Transform1]
	if !ok {
		return nil
	}
	v1, ok := t1.Apply(line.Params[c.ParamIdx1].Value)
	if !ok {
		return nil
	}
	self := selfPair(c)
	if ch.equalsFast(c) {
		if col := v.column(ch, c.Pattern2, c.ParamIdx2, c.Transform2); col != nil {
			// The key index preserves column (line) order per bucket.
			var out []int
			for _, wl := range col.equalsIndex()[v1.Key()] {
				if wl == li && self {
					continue
				}
				out = append(out, wl)
			}
			return out
		}
	}
	var out []int
	for _, w := range v.values(ch, c.Pattern2, c.ParamIdx2, c.Transform2) {
		if w.line == li && self {
			continue
		}
		if ch.holds(c.Rel, v1, w.value) {
			out = append(out, w.line)
		}
	}
	return out
}
