package mining

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"concord/internal/contracts"
	"concord/internal/intern"
	"concord/internal/lexer"
	"concord/internal/netdata"
	"concord/internal/relations"
	"concord/internal/score"
	"concord/internal/trie"
)

// candKey identifies a candidate relational contract globally by its
// pattern strings: the key form of exported candidates and of the
// brute-force baseline. The accumulator fold uses the interned candKeyI
// instead and only materializes strings for accepted contracts.
type candKey struct {
	p1  string
	i1  int
	t1  string
	rel relations.Rel
	p2  string
	i2  int
	t2  string
}

// candKeyI is candKey on dense IDs: run-wide intern IDs for the
// patterns, registry indexes for the transforms and the relation. It
// hashes as a few machine words instead of two full pattern strings.
type candKeyI struct {
	p1  int32
	i1  int32
	t1  int32
	rel int8
	p2  int32
	i2  int32
	t2  int32
}

// candState accumulates cross-configuration evidence for one candidate.
type candState struct {
	display1, display2 string
	holdConfigs        int
	agg                *score.Aggregator
}

// acceptRelational filters a complete candidate table by support,
// confidence, and score, materializing the accepted contracts; pattern
// strings are materialized only for candidates clearing the filters.
// The table must hold the whole corpus's evidence (a merged table from
// sharded accumulators is fine; a partial one is not, since echo
// suppression compares candidates against each other).
func (m *Miner) acceptRelational(global map[candKeyI]*candState, st *stats, tab *intern.Table) []contracts.Contract {
	m.opts.Telemetry.Add("mine.relation.candidates", int64(len(global)))

	idIdx := int32(-1)
	for ti := range m.transforms {
		if m.transforms[ti].Name == "id" {
			idIdx = int32(ti)
			break
		}
	}
	var out []contracts.Contract
	for k, cs := range global {
		p1 := tab.String(k.p1)
		supp := st.patterns[p1].configCount
		if supp < m.opts.Support {
			continue
		}
		conf := float64(cs.holdConfigs) / float64(supp)
		if conf < m.opts.Confidence {
			continue
		}
		if cs.agg.Total() < m.opts.ScoreThreshold {
			continue
		}
		// Transform echo suppression: if two parameters are equal under
		// the identity transform, they are also equal under every common
		// injective transform (hex/hex, str/str, ...). Keep only the
		// identity form.
		if m.rels[k.rel] == relations.Equals && k.t1 == k.t2 && k.t1 != idIdx && idIdx >= 0 {
			idKey := k
			idKey.t1, idKey.t2 = idIdx, idIdx
			if idc, ok := global[idKey]; ok &&
				float64(idc.holdConfigs)/float64(supp) >= m.opts.Confidence &&
				idc.agg.Total() >= m.opts.ScoreThreshold {
				continue
			}
		}
		out = append(out, &contracts.Relational{
			Pattern1:   p1,
			Display1:   cs.display1,
			ParamIdx1:  int(k.i1),
			Transform1: m.transforms[k.t1].Name,
			Rel:        m.rels[k.rel],
			Pattern2:   tab.String(k.p2),
			Display2:   cs.display2,
			ParamIdx2:  int(k.i2),
			Transform2: m.transforms[k.t2].Name,
			Evidence: contracts.Stats{
				Support:    supp,
				Confidence: conf,
				Score:      cs.agg.Total(),
			},
		})
	}
	sortByID(out)
	return out
}

// relationalPass is the unsharded fold driver: it folds every
// configuration (statistics and relational scan, see
// StatsAccumulator.Fold) into per-worker accumulators, scheduling
// configurations dynamically, and merges the accumulators in worker
// order. The merge laws make the result independent of which worker
// folded which configuration, so it equals a sequential fold. A strict
// fault or cancellation stops workers from starting new configurations.
// An empty corpus yields one empty accumulator.
func (m *Miner) relationalPass(ctx context.Context, cfgs []*lexer.Config, tab *intern.Table) (*StatsAccumulator, error) {
	workers := max(min(m.opts.Parallelism, len(cfgs)), 1)
	accs := make([]*StatsAccumulator, workers)
	for w := range accs {
		accs[w] = m.NewStatsAccumulator(tab)
	}
	var done atomic.Int64
	fold := func(acc *StatsAccumulator, cfg *lexer.Config) error {
		if err := acc.Fold(cfg); err != nil {
			return err
		}
		if m.opts.Progress != nil {
			m.opts.Progress(int(done.Add(1)), len(cfgs))
		}
		return nil
	}
	if workers <= 1 {
		for _, cfg := range cfgs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := fold(accs[0], cfg); err != nil {
				return nil, err
			}
		}
		return accs[0], nil
	}
	ictx, abort := context.WithCancel(ctx)
	defer abort()
	var failOnce sync.Once
	var failErr error
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := range next {
				if ictx.Err() != nil {
					continue // drain without working
				}
				if err := fold(accs[w], cfgs[ci]); err != nil {
					failOnce.Do(func() {
						failErr = err
						abort()
					})
				}
			}
		}()
	}
feed:
	for ci := range cfgs {
		select {
		case next <- ci:
		case <-ictx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	if failErr != nil {
		return nil, failErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, acc := range accs[1:] {
		accs[0].Merge(acc)
	}
	return accs[0], nil
}

// srcInfo is an interned (pattern, param, transform) triple within one
// configuration.
type srcInfo struct {
	patternID int32
	paramIdx  int32
	transform int32 // index into m.transforms
}

// hit is an indexed witness occurrence: its source plus the
// informativeness score of the stored value, precomputed at insert time.
type hit struct {
	src   int32
	score float32
}

// appliedVal is one transformed parameter value of one line, with
// everything the query pass needs precomputed.
type appliedVal struct {
	lhs   int32 // source id
	vid   int32 // worker value-key id (index into eqBuckets)
	val   netdata.Value
	score float64
}

// candTracker tracks one candidate's per-configuration evidence. Lines
// are visited in increasing order, so distinct satisfied lines can be
// counted with a single lastLine watermark. Instances live in the
// scan's shared instNode slab as a linked list, so the tracker (and the
// slab holding it) contains no pointers for the garbage collector to
// scan and appending an instance never reallocates per candidate.
type candTracker struct {
	lhs       int32
	rel       int8
	src       int32
	lastLine  int32
	satisfied int32
	instHead  int32
	instTail  int32
}

// instNode is one scored instance in the shared slab; next links the
// owning candidate's instances in insertion order (-1 terminates). The
// instance key is the per-config value id, resolved back to its string
// only when the fold reaches an aggregator.
type instNode struct {
	vid  int32
	next int32
	s    float64
}

// applyEntry memoizes one (value, transform) application per worker.
// Transforms are pure and value keys are canonical, so a memoized
// result is valid for every occurrence of the value in every
// configuration the worker scans.
type applyEntry struct {
	tv    netdata.Value
	vid   int32
	score float64
	state uint8 // 0 = unknown, 1 = applies, 2 = rejected
}

// scanScratch is the relational scan's per-worker state. The memo
// fields persist across configurations (values, patterns, and
// transform results repeat heavily within a corpus); the rest is
// reset — with capacity retained — before each configuration, so
// steady-state scanning allocates almost nothing.
type scanScratch struct {
	nT int // len(m.transforms), fixed at construction

	// Persistent per worker: value-key interning (wvID/wvKeys), the
	// per-(value, transform) application memo, and the gid -> local
	// pattern id translation (validated by epoch, so it needs no
	// clearing between configurations).
	wvID      map[string]int32
	wvKeys    []string
	applyMemo []applyEntry
	pidByGid  []int32
	pidEpoch  []uint32
	epoch     uint32

	// eqBuckets is indexed by worker value id; only buckets touched by
	// the current configuration (tracked in eqTouched) are non-empty,
	// and reset truncates exactly those, keeping their capacity.
	eqBuckets [][]hit
	eqTouched []int32

	// Per-configuration state, reset (capacity kept) between configs.
	displays    []string
	gids        []int32 // local pattern id -> run-wide intern id
	sources     []srcInfo
	occurrences []int32
	srcMemo     [][]int32 // local pattern id -> flat [paramIdx*nT+ti] source id
	valSlab     []appliedVal
	lineVals    [][2]int32
	density     []float64
	locals      []candTracker
	insts       []instNode
	indexed     map[uint64]struct{}
	localIdx    map[uint64]int32
}

func newScanScratch(nT int) *scanScratch {
	return &scanScratch{
		nT:       nT,
		wvID:     make(map[string]int32),
		indexed:  make(map[uint64]struct{}),
		localIdx: make(map[uint64]int32),
	}
}

// internVal returns the worker-wide dense id of a value key.
func (ss *scanScratch) internVal(key string) int32 {
	id, ok := ss.wvID[key]
	if !ok {
		id = int32(len(ss.wvKeys))
		ss.wvID[key] = id
		ss.wvKeys = append(ss.wvKeys, key)
		ss.eqBuckets = append(ss.eqBuckets, nil)
	}
	return id
}

// reset prepares the scratch for the next configuration.
func (ss *scanScratch) reset(nLines int) {
	ss.epoch++
	for _, v := range ss.eqTouched {
		ss.eqBuckets[v] = ss.eqBuckets[v][:0]
	}
	ss.eqTouched = ss.eqTouched[:0]
	ss.displays = ss.displays[:0]
	ss.gids = ss.gids[:0]
	ss.sources = ss.sources[:0]
	ss.occurrences = ss.occurrences[:0]
	ss.srcMemo = ss.srcMemo[:0]
	ss.valSlab = ss.valSlab[:0]
	ss.density = ss.density[:0]
	ss.locals = ss.locals[:0]
	ss.insts = ss.insts[:0]
	if cap(ss.lineVals) < nLines {
		ss.lineVals = make([][2]int32, nLines)
	} else {
		ss.lineVals = ss.lineVals[:nLines]
	}
	clear(ss.indexed)
	clear(ss.localIdx)
}

// foldScan folds one configuration's scan into the global
// candidate table: a candidate holds here iff every forall instance
// found a witness.
func (m *Miner) foldScan(ss *scanScratch, global map[candKeyI]*candState) {
	for i := range ss.locals {
		c := &ss.locals[i]
		if c.satisfied != ss.occurrences[c.lhs] {
			continue
		}
		ls := ss.sources[c.lhs]
		ws := ss.sources[c.src]
		k := candKeyI{
			p1: ss.gids[ls.patternID], i1: ls.paramIdx, t1: ls.transform,
			rel: c.rel,
			p2:  ss.gids[ws.patternID], i2: ws.paramIdx, t2: ws.transform,
		}
		cs := global[k]
		if cs == nil {
			cs = &candState{
				display1: ss.displays[ls.patternID],
				display2: ss.displays[ws.patternID],
				agg:      score.NewAggregator(),
			}
			global[k] = cs
		}
		cs.holdConfigs++
		for ni := c.instHead; ni >= 0; ni = ss.insts[ni].next {
			n := &ss.insts[ni]
			cs.agg.AddInstance(ss.wvKeys[n.vid], n.s)
		}
	}
}

// scanRelationalConfig processes one configuration into a satisfied-
// candidate scan, accumulated in the worker's scratch. The relational
// miner (§3.5) uses relation-aware search structures: pass A indexes
// every (transformed) parameter value as a potential witness; pass B
// queries the indexes for every value, generating candidates only where
// an actual relationship exists. It memoizes transform
// applications and value scores per worker (values repeat heavily
// across lines and configurations), interns value keys so pass B
// replaces string-map lookups with array indexing, resolves patterns
// through their run-wide intern id instead of hashing pattern strings,
// dedups (value, source) pairs through a pointer-free integer map, and
// slab-allocates applied values and candidate trackers; the visit
// callback is built once per configuration instead of once per value.
func (m *Miner) scanRelationalConfig(cfg *lexer.Config, gtab *intern.Table, ss *scanScratch) {
	ss.reset(len(cfg.Lines))
	nT := ss.nT

	// Local pattern ids are assigned through the run-wide intern id: an
	// epoch-tagged translation array replaces a per-line string map
	// lookup.
	localPid := func(line *lexer.Line) int32 {
		gid := line.PatternID
		if gid == 0 {
			gid = gtab.ID(line.Pattern)
		}
		for int(gid) >= len(ss.pidByGid) {
			ss.pidByGid = append(ss.pidByGid, 0)
			ss.pidEpoch = append(ss.pidEpoch, 0)
		}
		if ss.pidEpoch[gid] != ss.epoch {
			pid := int32(len(ss.displays))
			ss.displays = append(ss.displays, line.Display)
			ss.gids = append(ss.gids, gid)
			ss.srcMemo = append(ss.srcMemo, nil)
			ss.pidByGid[gid] = pid
			ss.pidEpoch[gid] = ss.epoch
		}
		return ss.pidByGid[gid]
	}

	cv4 := trie.NewPrefixTrie[hit](false)
	cv6 := trie.NewPrefixTrie[hit](true)
	sw := trie.NewStringTrie[hit]()
	ew := trie.NewStringTrie[hit]()

	// User-defined relation indexes work with string-keyed sources; the
	// side table maps their query hits back to interned ids.
	extraIx := make([]relations.Index, len(m.opts.ExtraRelations))
	for k := range m.opts.ExtraRelations {
		extraIx[k] = m.opts.ExtraRelations[k].NewIndex()
	}
	var extraSrcID map[relations.Source]int32
	if len(extraIx) > 0 {
		extraSrcID = make(map[relations.Source]int32)
	}

	// Pass A: apply transforms, intern sources, and index witness
	// values. Each original value pays one Key() and one intern lookup;
	// its transform applications come from the worker memo. Duplicate
	// (value, source) pairs are indexed once via a packed-integer dedup
	// key. Source ids are memoized per pattern: every line of a pattern
	// has the same (pattern, param, transform) triples, so only the
	// first line assigns them.
	for li := range cfg.Lines {
		line := &cfg.Lines[li]
		pid := localPid(line)
		start := int32(len(ss.valSlab))
		if len(line.Params) == 0 {
			ss.lineVals[li] = [2]int32{start, start}
			continue
		}
		memo := ss.srcMemo[pid]
		if memo == nil {
			memo = make([]int32, len(line.Params)*nT)
			for i := range memo {
				memo[i] = -1
			}
			ss.srcMemo[pid] = memo
		}
		for pi := range line.Params {
			ov := line.Params[pi].Value
			oid := ss.internVal(ov.Key())
			if need := (int(oid) + 1) * nT; len(ss.applyMemo) < need {
				ss.applyMemo = append(ss.applyMemo, make([]applyEntry, need-len(ss.applyMemo))...)
			}
			for ti := 0; ti < nT; ti++ {
				e := &ss.applyMemo[int(oid)*nT+ti]
				if e.state == 0 {
					if tv, ok := m.transforms[ti].Apply(ov); ok {
						e.tv, e.vid, e.score, e.state = tv, ss.internVal(tv.Key()), score.Value(tv), 1
					} else {
						e.state = 2
					}
				}
				if e.state == 2 {
					continue
				}
				id := memo[pi*nT+ti]
				if id < 0 {
					id = int32(len(ss.sources))
					ss.sources = append(ss.sources, srcInfo{patternID: pid, paramIdx: int32(pi), transform: int32(ti)})
					ss.occurrences = append(ss.occurrences, 0)
					memo[pi*nT+ti] = id
				}
				ss.occurrences[id]++
				ss.valSlab = append(ss.valSlab, appliedVal{lhs: id, vid: e.vid, val: e.tv, score: e.score})
				dk := uint64(uint32(e.vid))<<32 | uint64(uint32(id))
				if _, dup := ss.indexed[dk]; dup {
					continue
				}
				ss.indexed[dk] = struct{}{}
				h := hit{src: id, score: float32(e.score)}
				if len(ss.eqBuckets[e.vid]) == 0 {
					ss.eqTouched = append(ss.eqTouched, e.vid)
				}
				ss.eqBuckets[e.vid] = append(ss.eqBuckets[e.vid], h)
				switch v := e.tv.(type) {
				case netdata.Prefix:
					if v.Addr().Is6() {
						cv6.Insert(v, h)
					} else {
						cv4.Insert(v, h)
					}
				case netdata.Str:
					sw.Insert(string(v), h)
					ew.Insert(trie.Reverse(string(v)), h)
				}
				if len(extraIx) > 0 {
					esrc := relations.Source{Pattern: line.Pattern, ParamIdx: pi, Transform: m.transforms[ti].Name}
					extraSrcID[esrc] = id
					for _, ix := range extraIx {
						ix.Add(e.tv, esrc)
					}
				}
			}
		}
		ss.lineVals[li] = [2]int32{start, int32(len(ss.valSlab))}
	}

	// Witness-source density penalty: a source whose values densely
	// cover a small domain (e.g. interface indexes 0..N) witnesses
	// almost any small value by coincidence. Instance scores are damped
	// by the source's occurrence count, generalizing the paper's
	// "common values yield spurious matches" heuristic.
	for i := range ss.sources {
		ss.density = append(ss.density, 1/(1+math.Log2(math.Max(1, float64(ss.occurrences[i])))))
	}
	density := ss.density

	// Pass B: query the indexes for every value. Candidates live in a
	// slab addressed through a map keyed by packed (lhs, src, rel), so
	// the tracker structs are contiguous and the map holds no pointers.
	sources := ss.sources
	maxFanout := m.opts.MaxFanout

	// One callback serves every index query; the per-value and
	// per-relation state lives in captured variables reset by setRel.
	var (
		curAV           *appliedVal
		curLHS          srcInfo
		curLine         int32
		curRel          int8
		fanout, visited int
	)
	visitHit := func(h hit) bool {
		// Traversal budget: self-skips below still consume it, so a
		// subtree dominated by the query's own values cannot force a
		// full walk.
		visited++
		if visited > 4*maxFanout {
			return false
		}
		ws := sources[h.src]
		// A parameter never witnesses itself: the same (pattern, param)
		// is skipped regardless of transform, since relating a value to
		// a transform of itself carries no cross-line information.
		if ws.patternID == curLHS.patternID && ws.paramIdx == curLHS.paramIdx {
			return true
		}
		fanout++
		if fanout > maxFanout {
			return false
		}
		ck := uint64(uint32(curAV.lhs))<<34 | uint64(uint32(h.src))<<4 | uint64(curRel)
		ci, ok := ss.localIdx[ck]
		if !ok {
			ci = int32(len(ss.locals))
			ss.localIdx[ck] = ci
			ss.locals = append(ss.locals, candTracker{lhs: curAV.lhs, rel: curRel, src: h.src, lastLine: -1, instHead: -1, instTail: -1})
		}
		c := &ss.locals[ci]
		inst := curAV.score
		if s := float64(h.score); s < inst {
			inst = s
		}
		inst *= density[h.src]
		if c.lastLine == curLine {
			if n := &ss.insts[c.instTail]; inst > n.s {
				n.s = inst
			}
			return true
		}
		c.lastLine = curLine
		c.satisfied++
		ss.insts = append(ss.insts, instNode{vid: curAV.vid, next: -1, s: inst})
		ni := int32(len(ss.insts)) - 1
		if c.instTail >= 0 {
			ss.insts[c.instTail].next = ni
		} else {
			c.instHead = ni
		}
		c.instTail = ni
		return true
	}
	setRel := func(rel int8) func(h hit) bool {
		curRel = rel
		fanout, visited = 0, 0
		return visitHit
	}
	for li := range cfg.Lines {
		r := ss.lineVals[li]
		for ai := r[0]; ai < r[1]; ai++ {
			av := &ss.valSlab[ai]
			curAV = av
			curLHS = sources[av.lhs]
			curLine = int32(li)
			if bucket := ss.eqBuckets[av.vid]; len(bucket) > 0 {
				v := setRel(0)
				for i := range bucket {
					if !v(bucket[i]) {
						break
					}
				}
			}
			switch v := av.val.(type) {
			case netdata.IP:
				if v.Is6() {
					cv6.Containing(v, setRel(1))
				} else {
					cv4.Containing(v, setRel(1))
				}
			case netdata.Prefix:
				if v.Addr().Is6() {
					cv6.ContainingPrefix(v, setRel(1))
				} else {
					cv4.ContainingPrefix(v, setRel(1))
				}
			case netdata.Str:
				sw.ExtensionsOf(string(v), true, setRel(2))
				ew.ExtensionsOf(trie.Reverse(string(v)), true, setRel(3))
			}
			for k, ix := range extraIx {
				v := setRel(int8(4 + k))
				ix.Query(av.val, func(e relations.Entry) bool {
					id, ok := extraSrcID[e.Source]
					if !ok {
						return true
					}
					return v(hit{src: id, score: float32(score.Value(e.Value))})
				})
			}
		}
	}
}
