package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"concord/internal/contracts"
	"concord/internal/core"
	"concord/internal/server"
	"concord/internal/synth"
	"concord/internal/telemetry"
)

// serveSplit is the serve-check corpus: edge devices with metadata (E2
// shape). The contract set is learned from the training devices; request
// batches are drawn from the rest.
var serveSplit = roleSplit{role: "E2", scale: 3, train: 40, test: 50}

const (
	serveClients = 2   // closed-loop clients, no more than the host's CPUs
	serveBatches = 192 // distinct request batches; two in three carry one planted device
	batchSize    = 3   // configurations per request
	// opHeader carries a traced request's operation ID to the server.
	opHeader = "X-Perfbench-Op"
)

// batch is one distinct request: its configurations, the encoded body,
// and the response prefix every reply must match.
type batch struct {
	srcs   []core.Source
	clean  []core.Source // the batch with its plant (if any) undone
	plants []plant
	body   []byte
	want   []byte // expected response up to the server-side duration
	report string // expected violations+coverage digest
	viol   []contracts.Violation
}

type serveRunner struct {
	seed    int64
	c       *corpus
	set     *contracts.Set
	fp      string
	srv     *server.Server
	en      *core.RegistryEntry
	hs      *http.Server
	served  chan struct{}
	url     string
	client  *http.Client
	batches []*batch
	order   []int // seeded request order over batches
	tracer  atomic.Pointer[tracer]
	t       tally
}

func setupServe(seed int64) (runner, error) {
	rng := rand.New(rand.NewSource(seed))
	c, err := makeCorpus(rng, serveSplit)
	if err != nil {
		return nil, err
	}
	r := &serveRunner{seed: seed, c: c}
	eng, err := core.New(core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	res, err := eng.Learn(c.train, c.meta)
	if err != nil {
		return nil, err
	}
	r.set = res.Set
	if r.srv, err = server.New(core.DefaultOptions(), server.Options{}); err != nil {
		return nil, err
	}
	ctx := context.Background()
	if r.fp, err = r.srv.SetDefaultContracts(ctx, r.set); err != nil {
		r.close()
		return nil, err
	}
	if r.en, err = r.srv.Registry().AcquireByFingerprint(ctx, r.fp); err != nil {
		r.close()
		return nil, err
	}
	if err := r.makeBatches(rng); err != nil {
		r.close()
		return nil, err
	}
	r.order = rng.Perm(serveBatches * 16)
	for i := range r.order {
		r.order[i] %= serveBatches
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, err
	}
	r.url = "http://" + ln.Addr().String() + "/v1/check"
	r.hs = &http.Server{Handler: http.HandlerFunc(r.handle)}
	r.served = make(chan struct{})
	go func() {
		defer close(r.served)
		_ = r.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	r.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true}}
	return r, nil
}

// handle serves the server's handler, under a span when the request
// carries an operation ID and a tracer is installed.
func (r *serveRunner) handle(w http.ResponseWriter, req *http.Request) {
	tr := r.tracer.Load()
	if tr == nil || req.Header.Get(opHeader) == "" {
		r.srv.Handler().ServeHTTP(w, req)
		return
	}
	op, _ := strconv.ParseInt(req.Header.Get(opHeader), 10, 64)
	sp := tr.begin(op, op, "server.Handler")
	r.srv.Handler().ServeHTTP(w, req)
	sp.end()
}

// makeBatches draws the distinct request batches. A planted batch
// carries one device mutated at a seeded site, kinds taken in turn.
func (r *serveRunner) makeBatches(rng *rand.Rand) error {
	meta := toJSON(r.c.meta)
	kinds := synth.Mutations()
	for b := 0; b < serveBatches; b++ {
		bt := &batch{}
		for _, i := range rng.Perm(len(r.c.clean))[:batchSize] {
			bt.srcs = append(bt.srcs, r.c.clean[i])
		}
		bt.clean = append([]core.Source(nil), bt.srcs...)
		if b%3 != 0 {
			for k := 0; k < len(kinds) && len(bt.plants) == 0; k++ {
				kind := kinds[(b+k)%len(kinds)]
				text, line, ok := synth.Mutate(string(bt.srcs[0].Text), kind, rng.Int63())
				if ok {
					bt.srcs[0].Text = []byte(text)
					bt.plants = []plant{{file: bt.srcs[0].Name, kind: kind, line: line}}
				}
			}
		}
		var err error
		if bt.body, err = json.Marshal(server.CheckRequest{Fingerprint: r.fp, Configs: toJSON(bt.srcs), Metadata: meta}); err != nil {
			return err
		}
		r.batches = append(r.batches, bt)
	}
	return nil
}

// expect computes every batch's expected response with a direct
// RegistryEntry.CheckContext.
func (r *serveRunner) expect() error {
	for _, bt := range r.batches {
		res, err := r.en.CheckContext(context.Background(), bt.srcs, r.c.meta, nil)
		if r.t.record(err) != nil {
			return err
		}
		bt.viol = res.Violations
		if bt.report, err = digest(checkReport{res.Violations, res.Coverage}); err != nil {
			return err
		}
		want, err := json.Marshal(server.CheckResponse{Fingerprint: r.fp, Violations: res.Violations,
			Coverage: res.Coverage, Stats: res.Stats, Diagnostics: res.Diagnostics})
		if err != nil {
			return err
		}
		if bt.want, err = beforeDuration(want); err != nil {
			return err
		}
	}
	return nil
}

func toJSON(srcs []core.Source) []server.SourceJSON {
	out := make([]server.SourceJSON, len(srcs))
	for i, s := range srcs {
		out[i] = server.SourceJSON{Name: s.Name, Text: string(s.Text)}
	}
	return out
}

// beforeDuration cuts a check response at its server-side duration, the
// one field that differs between identical results.
func beforeDuration(body []byte) ([]byte, error) {
	i := bytes.LastIndex(body, []byte(`,"duration_ms":`))
	if i < 0 {
		return nil, errors.New("response has no duration_ms")
	}
	return body[:i], nil
}

func (r *serveRunner) tally() *tally { return &r.t }

func (r *serveRunner) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if r.hs != nil {
		_ = r.hs.Shutdown(ctx) // idle connections only; no request is in flight
		<-r.served
	}
	if r.client != nil {
		r.client.CloseIdleConnections()
	}
	if r.srv != nil {
		_ = r.srv.Shutdown(ctx) // stops the job janitor; nothing else runs
	}
}

// post sends batch b, reads the whole response and checks it. op, when
// non-zero, tags the request for the server-side span.
func (r *serveRunner) post(b *batch, op int64) (int, error) {
	req, err := http.NewRequest(http.MethodPost, r.url, bytes.NewReader(b.body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if op != 0 {
		req.Header.Set(opHeader, strconv.FormatInt(op, 10))
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return len(body), fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	got, err := beforeDuration(body)
	if err == nil && !bytes.Equal(got, b.want) {
		err = errors.New("served response differs from a direct RegistryEntry.CheckContext")
	}
	return len(body), err
}

// closedLoop runs serveClients clients for d; each sends its next
// request only after the previous one completes. do handles one request
// and returns the size of its response.
func (r *serveRunner) closedLoop(d time.Duration, do func(b *batch) (int, error)) (lat []time.Duration, bytesOut int64, elapsed time.Duration) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	var next atomic.Int64
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []time.Duration
			var n int64
			for time.Since(start) < d {
				b := r.batches[r.order[int(next.Add(1)-1)%len(r.order)]]
				t := time.Now()
				size, err := do(b)
				mine = append(mine, time.Since(t))
				n += int64(size)
				_ = r.t.record(err)
			}
			mu.Lock()
			lat = append(lat, mine...)
			bytesOut += n
			mu.Unlock()
		}()
	}
	wg.Wait()
	return lat, bytesOut, time.Since(start)
}

func (r *serveRunner) postPlain(b *batch) (int, error) { return r.post(b, 0) }

// warmup computes the expected responses, then fills the resident
// lexer cache and the connection pool.
func (r *serveRunner) warmup() error {
	if err := r.expect(); err != nil {
		return err
	}
	r.closedLoop(1500*time.Millisecond, r.postPlain)
	if r.t.failed.Load() > 0 {
		return fmt.Errorf("%d warm-up requests failed", r.t.failed.Load())
	}
	d, err := digest(r.set)
	if err == nil {
		err = checkPin(r.seed, "serve/E2/learned", d)
	}
	return r.t.record(err)
}

func (r *serveRunner) measure(d time.Duration) ([]time.Duration, time.Duration) {
	lat, _, elapsed := r.closedLoop(d, r.postPlain)
	return lat, elapsed
}

func (r *serveRunner) peakOp() error {
	before := r.t.failed.Load()
	r.closedLoop(time.Second, r.postPlain)
	if n := r.t.failed.Load() - before; n > 0 {
		return fmt.Errorf("%d requests failed", n)
	}
	return nil
}

// oracle compares every planted batch's report with a direct check of
// the same batch with its plant undone, and pins the batch reports.
func (r *serveRunner) oracle(m metrics) error {
	var det detection
	var reports []string
	for _, b := range r.batches {
		reports = append(reports, b.report)
		if len(b.plants) == 0 {
			continue
		}
		clean, err := r.en.CheckContext(context.Background(), b.clean, r.c.meta, nil)
		if r.t.record(err) != nil {
			return err
		}
		det.add(b.plants, b.viol, clean.Violations)
	}
	d, err := digest(reports)
	if err == nil {
		err = checkPin(r.seed, "serve/E2/reports", d)
	}
	if r.t.record(err) != nil {
		return err
	}
	var p precision
	p.add(r.c.truth, r.set)
	m.set("learn_precision", p.value(), "frac")
	det.report(m)
	return nil
}

// trace measures, one after another within d: served requests untraced
// and traced (client root span, server handler span), direct
// RegistryEntry.CheckContext calls without and with a per-request
// telemetry recorder, and the layer-composed check under spans against a
// resident lexer cache and intern table.
func (r *serveRunner) trace(d time.Duration, tr *tracer, m metrics) error {
	// The untraced served loop gets the largest share, so its p99 has
	// enough samples beyond it.
	part := d * 3 / 20
	ctx := context.Background()
	served, sentBytes, _ := r.closedLoop(d-4*part, r.postPlain)

	r.tracer.Store(tr)
	tracedServe, _, _ := r.closedLoop(part, func(b *batch) (int, error) {
		op := tr.root("op.serve")
		defer op.end()
		return r.post(b, op.s.ID)
	})
	r.tracer.Store(nil)

	direct, _, _ := r.closedLoop(part, func(b *batch) (int, error) {
		res, err := r.en.CheckContext(ctx, b.srcs, r.c.meta, nil)
		if err != nil {
			return 0, err
		}
		return 0, sameReport(b, res.Violations, res.Coverage)
	})

	var cmu sync.Mutex
	var lo, hi [2]int64
	first := true
	withRec, _, _ := r.closedLoop(part, func(b *batch) (int, error) {
		rec := telemetry.NewRecorder()
		rec.SetSpanLimit(64)
		res, err := r.en.CheckContext(ctx, b.srcs, r.c.meta, rec)
		if err != nil {
			return 0, err
		}
		// The resident cache's counters are cumulative: each request
		// reports the totals at its end.
		h, mi := rec.Counter("lex.cache_hits"), rec.Counter("lex.cache_misses")
		cmu.Lock()
		if first || h < lo[0] {
			lo = [2]int64{h, mi}
		}
		if first || h > hi[0] {
			hi = [2]int64{h, mi}
		}
		first = false
		cmu.Unlock()
		return 0, sameReport(b, res.Violations, res.Coverage)
	})

	l, err := newLayers()
	if err != nil {
		return err
	}
	cache, interns := l.newCorpusState()
	sp := tr.root("op.compile")
	ch := contracts.NewChecker(r.set, contracts.WithTransforms(core.Transforms()), contracts.WithInterns(interns))
	sp.end()
	composed, _, _ := r.closedLoop(part, func(b *batch) (int, error) {
		op := tr.root("op.direct")
		cfgs, err := l.process(op, b.srcs, r.c.meta, cache, interns)
		if err != nil {
			op.end()
			return 0, err
		}
		rep := l.checkWith(op, ch, cfgs)
		op.end()
		return 0, sameReport(b, rep.Violations, rep.Coverage)
	})

	tot := tr.totals()
	ops := len(composed)
	reportCheckLayers(m, tot, l, ops)
	cb, _ := perOp(tot, "op.compile", 1)
	m.set("contracts.compile_s", cb, "s")
	_, un := perOp(tot, "op.direct", ops)
	m.set("core.unattributed_s", un, "s")
	if dh, dm := hi[0]-lo[0], hi[1]-lo[1]; dh+dm > 0 {
		m.set("lexer.cache_hit_ratio", float64(dh)/float64(dh+dm), "frac")
	}
	st := r.srv.Registry().Stats()
	if st.Hits+st.Misses > 0 {
		m.set("core.registry_hit_ratio", float64(st.Hits)/float64(st.Hits+st.Misses), "frac")
	}
	m.set("core.registry_compiles", float64(st.Compiles), "count")
	m.set("server.overhead_ms", ms(percentile(served, 50))-ms(percentile(direct, 50)), "ms")
	m.set("server.p99_ms", ms(percentile(served, 99)), "ms")
	m.set("server.samples", float64(len(served)), "count")
	m.set("server.response_bytes", float64(sentBytes)/float64(len(served)), "bytes")
	_, transport := perOp(tot, "op.serve", len(tracedServe))
	m.set("server.transport_ms", transport*1000, "ms")
	reportOverheads(m, tr, direct, composed, withRec)
	return nil
}

// sameReport checks a direct or composed result against the batch's
// expected report.
func sameReport(b *batch, vs []contracts.Violation, cov core.CoverageSummary) error {
	got, err := digest(checkReport{vs, cov})
	if err != nil {
		return err
	}
	if got != b.report {
		return errors.New("report differs from the served one")
	}
	return nil
}
