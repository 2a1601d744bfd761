// Package mining implements Concord's contract learning (§3.3–§3.5): a
// single statistics pass over the training configurations followed by
// per-category miners for present, ordering, type, sequence, and unique
// contracts, and the index-accelerated relational miner. A brute-force
// relational miner (brute.go) and a classic Apriori item-set miner
// (apriori.go) are included as the baselines the paper compares against.
package mining

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"sort"
	"strconv"

	"concord/internal/contracts"
	"concord/internal/diag"
	"concord/internal/faultinject"
	"concord/internal/intern"
	"concord/internal/lexer"
	"concord/internal/relations"
	"concord/internal/telemetry"
	"concord/internal/workpool"
)

// Options controls learning. The zero value is not useful; use
// DefaultOptions.
type Options struct {
	// Support (S) is the minimum absolute number of configurations in
	// which a pattern must appear before contracts about it are
	// considered. Default 5 (paper §4).
	Support int
	// Confidence (C) is the required fraction of supporting
	// configurations in which a contract must hold. Default 0.96.
	Confidence float64
	// ScoreThreshold gates relational contracts on their cumulative
	// diversity-weighted informativeness score (§3.5).
	ScoreThreshold float64
	// MaxFanout caps the number of candidate sources generated per value
	// lookup, bounding worst-case work on ubiquitous values (those
	// candidates score near zero anyway). Default 64.
	MaxFanout int
	// Transforms is the data transformation registry; nil selects
	// relations.DefaultTransforms.
	Transforms []relations.Transform
	// ExtraRelations adds user-defined relations to the four built-ins;
	// each definition supplies its evaluation function and witness index
	// (§4's pluggable relation-learning structures).
	ExtraRelations []relations.Definition
	// Categories restricts mining to the given categories; nil enables
	// all.
	Categories map[contracts.Category]bool
	// ConstantLearning additionally learns present contracts over exact
	// line text for lines carrying data values (§4), which captures
	// "magic constant" policies.
	ConstantLearning bool
	// Parallelism is the number of workers folding configurations
	// (<= 1 means sequential).
	Parallelism int
	// Telemetry, when non-nil, receives per-category miner spans
	// (mine/<category>) and candidate/accepted counters
	// (mine.<category>.candidates, mine.<category>.accepted).
	Telemetry *telemetry.Recorder
	// Diagnostics, when non-nil, enables fault containment: a panic in
	// a category miner or in one configuration's statistics/relational
	// pass is recorded as an error diagnostic and mining continues
	// without that unit. Nil preserves fail-fast panics for direct
	// Miner users.
	Diagnostics *diag.Collector
	// Strict converts the first contained panic into an error aborting
	// MineContext, instead of a diagnostic.
	Strict bool
	// Progress, when non-nil, is called after each configuration is
	// folded (statistics and relational scan, the dominant cost); it
	// must be safe for concurrent calls when Parallelism > 1.
	Progress func(done, total int)
}

// DefaultOptions returns the paper's default parameters.
func DefaultOptions() Options {
	return Options{
		Support:        5,
		Confidence:     0.96,
		ScoreThreshold: 8,
		MaxFanout:      64,
	}
}

// enabled reports whether a category should be mined.
func (o *Options) enabled(cat contracts.Category) bool {
	return o.Categories == nil || o.Categories[cat]
}

// Miner learns a contract set from training configurations.
type Miner struct {
	opts       Options
	transforms []relations.Transform
	// rels maps the compact relation index used in the relational-mining
	// hot path to relation names: the four built-ins followed by extras.
	rels []relations.Rel
}

// New builds a miner, filling unset options with defaults.
func New(opts Options) *Miner {
	def := DefaultOptions()
	if opts.Support <= 0 {
		opts.Support = def.Support
	}
	if opts.Confidence <= 0 {
		opts.Confidence = def.Confidence
	}
	if opts.ScoreThreshold < 0 {
		opts.ScoreThreshold = def.ScoreThreshold
	}
	if opts.MaxFanout <= 0 {
		opts.MaxFanout = def.MaxFanout
	}
	ts := opts.Transforms
	if ts == nil {
		ts = relations.DefaultTransforms()
	}
	rels := []relations.Rel{relations.Equals, relations.Contains, relations.StartsWith, relations.EndsWith}
	for _, def := range opts.ExtraRelations {
		rels = append(rels, def.Rel)
	}
	return &Miner{opts: opts, transforms: ts, rels: rels}
}

// Mine learns contracts from the training configurations. The returned
// set is deterministic for a given input; it is nil for a corpus
// MineContext rejects (one mixing intern tables).
func (m *Miner) Mine(cfgs []*lexer.Config) *contracts.Set {
	set, _ := m.MineContext(context.Background(), cfgs)
	return set
}

// MineContext is Mine with cooperative cancellation: it checks ctx
// between configurations during the fold and between category miners,
// returning ctx.Err() when cancelled. Per-category timings and counters
// go to Options.Telemetry when set.
//
// It is the engine's streaming Fold → Merge → MineAccumulated path over
// held configurations: relationalPass folds the configurations into per-worker
// StatsAccumulators over the corpus's intern table (see corpusTable),
// merges them, and MineAccumulated mines the merged evidence.
//
// With Options.Diagnostics attached, panics are contained per unit: a
// panicking category miner contributes no contracts of that category,
// and a panicking per-configuration pass drops only that
// configuration's evidence, each recorded as a diagnostic.
// Options.Strict instead aborts on the first panic with an error.
func (m *Miner) MineContext(ctx context.Context, cfgs []*lexer.Config) (*contracts.Set, error) {
	tab, err := corpusTable(cfgs)
	if err != nil {
		return nil, err
	}
	sp := m.opts.Telemetry.StartSpan("mine/stats")
	acc, err := m.relationalPass(ctx, cfgs, tab)
	sp.EndCount(len(cfgs))
	if err != nil {
		return nil, err
	}
	return m.MineAccumulated(ctx, acc)
}

// corpusTable returns the intern table the fold keys its statistics
// by: the table every configuration shares (every engine-processed
// corpus), or a fresh table for a corpus that carries none
// (hand-built configurations), whose lines the fold then interns as it
// goes. IDs from different tables are incomparable, so a corpus mixing
// tables, or carrying pattern IDs without their table, is an error.
func corpusTable(cfgs []*lexer.Config) (*intern.Table, error) {
	if tab := lexer.CommonInterns(cfgs); tab != nil {
		return tab, nil
	}
	for _, cfg := range cfgs {
		if cfg.Interns != nil {
			return nil, errors.New("mining: corpus mixes intern tables")
		}
		for i := range cfg.Lines {
			if cfg.Lines[i].PatternID != 0 {
				return nil, fmt.Errorf("mining: config %q carries pattern IDs without an intern table", cfg.Name)
			}
		}
	}
	return intern.NewTable(), nil
}

// MineAccumulated produces the learned set from a (merged) accumulator:
// the category miners and relational acceptance filters over evidence
// collected by Fold, after a last sweep of its dead candidates. The
// output is byte-identical to MineContext over the concatenation of
// every folded configuration.
func (m *Miner) MineAccumulated(ctx context.Context, acc *StatsAccumulator) (*contracts.Set, error) {
	acc.sweep()
	st := acc.sti.finalize()
	rec := m.opts.Telemetry
	set := &contracts.Set{}
	mineCat := func(cat contracts.Category, name string, candidates int, fn func() []contracts.Contract) ([]contracts.Contract, error) {
		if !m.opts.enabled(cat) {
			return nil, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sp := rec.StartSpan("mine/" + name)
		var found []contracts.Contract
		if err := m.contain("category:"+name, func() {
			faultinject.At("mining.category", name)
			found = fn()
		}); err != nil {
			return nil, err
		}
		sp.EndCount(len(found))
		rec.Add("mine."+name+".candidates", int64(candidates))
		rec.Add("mine."+name+".accepted", int64(len(found)))
		return found, nil
	}
	// The cheap per-category miners share the immutable stats pass, so
	// they run concurrently; each miner sorts its own output with
	// sortByID and results are appended in fixed step order, keeping the
	// learned set byte-identical to a sequential run.
	steps := []func() ([]contracts.Contract, error){
		func() ([]contracts.Contract, error) {
			return mineCat(contracts.CatPresent, "present", len(st.patterns), func() []contracts.Contract { return m.minePresent(st) })
		},
		func() ([]contracts.Contract, error) {
			if !m.opts.ConstantLearning {
				return nil, nil
			}
			return mineCat(contracts.CatPresent, "constant", len(st.constants), func() []contracts.Contract { return m.mineConstants(st) })
		},
		func() ([]contracts.Contract, error) {
			return mineCat(contracts.CatOrdering, "ordering", len(st.pairs), func() []contracts.Contract { return m.mineOrdering(st) })
		},
		func() ([]contracts.Contract, error) {
			return mineCat(contracts.CatType, "type", len(st.types), func() []contracts.Contract { return m.mineTypes(st) })
		},
		func() ([]contracts.Contract, error) {
			return mineCat(contracts.CatSequence, "sequence", len(st.seqs), func() []contracts.Contract { return m.mineSequence(st) })
		},
		func() ([]contracts.Contract, error) {
			return mineCat(contracts.CatUnique, "unique", len(st.uniqs), func() []contracts.Contract { return m.mineUnique(st) })
		},
	}
	found := make([][]contracts.Contract, len(steps))
	// With containment off (no diagnostics, not strict), contain() lets
	// a miner's panic through; Run re-raises it on this goroutine, so
	// fail-fast survives the concurrency.
	if err := workpool.Run(ctx, len(steps), len(steps), func(_, i int) (err error) {
		found[i], err = steps[i]()
		return err
	}); err != nil {
		return nil, err
	}
	for _, fs := range found {
		set.Contracts = append(set.Contracts, fs...)
	}
	if m.opts.enabled(contracts.CatRelation) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sp := rec.StartSpan("mine/relation")
		found := m.acceptRelational(acc.candI, st, acc.tab)
		sp.EndCount(len(found))
		rec.Add("mine.relation.accepted", int64(len(found)))
		set.Contracts = append(set.Contracts, found...)
	}
	rec.Add("mine.interned_strings", int64(acc.tab.Len()))
	return set, nil
}

// patternStats aggregates the global statistics of one pattern.
type patternStats struct {
	display     string
	configCount int // configurations containing the pattern
	lineCount   int
}

// pairStats tracks an observed successor pair (first, second).
type pairStats struct {
	displayFirst  string
	displaySecond string
	holdConfigs   int // configs where every first is followed by second
}

// typeStats tracks parameter types per type-agnostic pattern.
type typeStats struct {
	// perParam[i][type] counts lines using that type at leaf param i.
	perParam []map[string]*typeUse
	total    int
}

type typeUse struct {
	lines int
}

// seqStats tracks a numeric parameter's per-config equidistance.
type seqStats struct {
	display      string
	configsWith2 int // configs with >= 2 values
	configsSeq   int // of those, equidistant ones
}

// uniqStats tracks global value uniqueness of a parameter.
type uniqStats struct {
	display     string
	valueCount  map[string]int
	totalValues int
}

// stats is everything the simple miners need, computed in one pass.
type stats struct {
	nConfigs  int
	patterns  map[string]*patternStats
	pairs     map[[2]string]*pairStats
	firstOccs map[string]int // configs containing the first pattern of a pair
	types     map[string]*typeStats
	seqs      map[string]*seqStats // key: pattern|paramIdx
	uniqs     map[string]*uniqStats
	constants map[string]*patternStats // exact line text -> stats

	// seqMeta/uniqMeta recover (pattern, idx) from the composite key.
	seqMeta  map[string]patternParam
	uniqMeta map[string]patternParam
}

type patternParam struct {
	pattern string
	idx     int
}

func key2(pattern string, idx int) string {
	// Pattern text never contains '\x00'.
	return pattern + "\x00" + strconv.Itoa(idx)
}

// contain runs fn with panic containment when a diagnostics collector
// is attached: a recovered panic becomes an error diagnostic attributed
// to unit (with Strict, an error aborting the run). Without a collector
// the panic propagates, preserving fail-fast for direct Miner users.
func (m *Miner) contain(unit string, fn func()) (err error) {
	if m.opts.Diagnostics == nil && !m.opts.Strict {
		fn()
		return nil
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		d := diag.FromPanic("mine", unit, r)
		if m.opts.Strict {
			err = fmt.Errorf("mining: aborted (strict): %w", d.AsError())
			return
		}
		m.opts.Diagnostics.Add(d)
		m.opts.Telemetry.Add("diag.panics", 1)
	}()
	fn()
	return nil
}

// isArithmetic reports whether the values form a nonzero arithmetic
// progression in order. It works on *big.Int so values near or past the
// int64 range (large hex tokens) neither wrap during subtraction nor
// fall out of the evidence — the checker's stepBreak (contracts
// package) uses the same arithmetic, so miner and checker always agree.
func isArithmetic(vals []*big.Int) bool {
	if len(vals) < 2 {
		return true
	}
	d := new(big.Int).Sub(vals[1], vals[0])
	if d.Sign() == 0 {
		return false
	}
	diff := new(big.Int)
	for i := 2; i < len(vals); i++ {
		diff.Sub(vals[i], vals[i-1])
		if diff.Cmp(d) != 0 {
			return false
		}
	}
	return true
}

// minePresent learns one present contract per pattern appearing in at
// least Support configs and at least Confidence of all configs.
func (m *Miner) minePresent(st *stats) []contracts.Contract {
	var out []contracts.Contract
	for p, ps := range st.patterns {
		conf := float64(ps.configCount) / float64(st.nConfigs)
		if ps.configCount >= m.opts.Support && conf >= m.opts.Confidence {
			out = append(out, &contracts.Present{
				Pattern:  p,
				Display:  ps.display,
				Evidence: contracts.Stats{Support: ps.configCount, Confidence: conf},
			})
		}
	}
	sortByID(out)
	return out
}

// mineConstants learns exact-text present contracts for valued lines
// whose full text recurs across configurations (constant-learning mode).
func (m *Miner) mineConstants(st *stats) []contracts.Contract {
	var out []contracts.Contract
	for text, cs := range st.constants {
		conf := float64(cs.configCount) / float64(st.nConfigs)
		if cs.configCount >= m.opts.Support && conf >= m.opts.Confidence {
			out = append(out, &contracts.Present{
				Pattern:  text,
				Display:  text,
				Exact:    true,
				Evidence: contracts.Stats{Support: cs.configCount, Confidence: conf},
			})
		}
	}
	sortByID(out)
	return out
}

// mineOrdering learns successor contracts: pairs where the second
// pattern immediately follows every occurrence of the first in at least
// Confidence of the configs containing the first.
func (m *Miner) mineOrdering(st *stats) []contracts.Contract {
	var out []contracts.Contract
	for k, ps := range st.pairs {
		first, second := k[0], k[1]
		supportFirst := st.firstOccs[first]
		supportSecond := st.firstOccs[second]
		if supportFirst < m.opts.Support || supportSecond < m.opts.Support {
			continue
		}
		conf := float64(ps.holdConfigs) / float64(supportFirst)
		if conf < m.opts.Confidence {
			continue
		}
		out = append(out, &contracts.Ordering{
			First:         first,
			Second:        second,
			DisplayFirst:  ps.displayFirst,
			DisplaySecond: ps.displaySecond,
			Evidence:      contracts.Stats{Support: supportFirst, Confidence: conf},
		})
	}
	sortByID(out)
	return out
}

// mineTypes learns negative type contracts: for each type-agnostic
// pattern and parameter position, types used in fewer than (1-C) of the
// lines are deemed invalid.
func (m *Miner) mineTypes(st *stats) []contracts.Contract {
	var out []contracts.Contract
	for ag, ts := range st.types {
		for pi, uses := range ts.perParam {
			// Total lines that have this parameter position.
			total := 0
			for _, tu := range uses {
				total += tu.lines
			}
			if total == 0 || len(uses) < 2 {
				continue // a single observed type is not evidence of error
			}
			var good []string
			for typ, tu := range uses {
				if float64(tu.lines)/float64(total) >= 1-m.opts.Confidence {
					good = append(good, typ)
				}
			}
			sort.Strings(good)
			for typ, tu := range uses {
				frac := float64(tu.lines) / float64(total)
				if frac >= 1-m.opts.Confidence {
					continue
				}
				if total-tu.lines < m.opts.Support {
					continue // dominant evidence too thin
				}
				out = append(out, &contracts.TypeError{
					Agnostic:  ag,
					ParamIdx:  pi,
					BadType:   typ,
					GoodTypes: good,
					Evidence: contracts.Stats{
						Support:    total - tu.lines,
						Confidence: 1 - frac,
					},
				})
			}
		}
	}
	sortByID(out)
	return out
}

// mineSequence learns equidistance contracts for numeric parameters.
func (m *Miner) mineSequence(st *stats) []contracts.Contract {
	var out []contracts.Contract
	for k, ss := range st.seqs {
		if ss.configsWith2 < m.opts.Support {
			continue
		}
		conf := float64(ss.configsSeq) / float64(ss.configsWith2)
		if conf < m.opts.Confidence {
			continue
		}
		meta := st.seqMeta[k]
		out = append(out, &contracts.Sequence{
			Pattern:  meta.pattern,
			Display:  ss.display,
			ParamIdx: meta.idx,
			Evidence: contracts.Stats{Support: ss.configsWith2, Confidence: conf},
		})
	}
	sortByID(out)
	return out
}

// mineUnique learns global-uniqueness contracts: parameters whose values
// never repeat across the whole training set.
func (m *Miner) mineUnique(st *stats) []contracts.Contract {
	var out []contracts.Contract
	for k, us := range st.uniqs {
		meta := st.uniqMeta[k]
		ps := st.patterns[meta.pattern]
		if ps == nil || ps.configCount < m.opts.Support {
			continue
		}
		if us.totalValues < 2 {
			continue
		}
		// Confidence: the fraction of occurrences whose value appears
		// exactly once globally. A few duplicates below the tolerance
		// 1-C are forgiven, matching the other miners.
		uniqueOccs := 0
		for _, n := range us.valueCount {
			if n == 1 {
				uniqueOccs++
			}
		}
		conf := float64(uniqueOccs) / float64(us.totalValues)
		if conf < m.opts.Confidence {
			continue
		}
		out = append(out, &contracts.Unique{
			Pattern:  meta.pattern,
			Display:  us.display,
			ParamIdx: meta.idx,
			Evidence: contracts.Stats{Support: ps.configCount, Confidence: conf},
		})
	}
	sortByID(out)
	return out
}

// sortByID orders contracts deterministically.
func sortByID(cs []contracts.Contract) {
	sort.Slice(cs, func(i, j int) bool { return cs[i].ID() < cs[j].ID() })
}
