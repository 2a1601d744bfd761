package server

// Bundle, hot-reload, recovery, and admission tests: the server half of
// the crash-safe bundle design. Chaos cases simulate daemon death by
// tearing on-disk state directly (the store's own tests cover the
// write-path crash windows; here the concern is that a *restarted
// server* recovers serving state and jobs from whatever disk holds).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"concord/internal/bundle"
	"concord/internal/contracts"
	"concord/internal/core"
	"concord/internal/faultinject"
)

// pushBundle POSTs /v1/bundles and decodes the success response.
func pushBundle(t *testing.T, base string, req BundleRequest) BundleResponse {
	t.Helper()
	status, body := postJSON(t, base+"/v1/bundles", req)
	if status != http.StatusOK {
		t.Fatalf("POST /v1/bundles = %d: %s", status, body)
	}
	var resp BundleResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// defaultCheckViolations runs a default-set check and returns the
// violations as canonical JSON.
func defaultCheckViolations(t *testing.T, base string, test []core.Source) []byte {
	t.Helper()
	status, body := postJSON(t, base+"/v1/check", CheckRequest{Configs: toJSONSources(test)})
	if status != http.StatusOK {
		t.Fatalf("default-set check = %d: %s", status, body)
	}
	var cr CheckResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	out, _ := json.Marshal(cr.Violations)
	return out
}

// TestServeBundlePushActivate: a pushed bundle (base + suppressions)
// persists, activates as the default serving set, advances the
// last-known-good pointer, and serves exactly the effective
// (suppression-filtered) set.
func TestServeBundlePushActivate(t *testing.T) {
	set := learnSet(t)
	if set.Len() < 2 {
		t.Fatalf("learned set too small: %d", set.Len())
	}
	test := fixtureSources(3)
	suppressed := set.Contracts[0].ID()
	eff := bundle.New("x", "", bundle.RoleServe, set, nil, []string{suppressed}).Effective()
	want, err := core.MustNew(core.DefaultOptions()).Check(eff, test, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want.Violations)

	dir := t.TempDir()
	srv, base := startServer(t, core.DefaultOptions(), Options{BundleDir: dir})
	setJSON, _ := json.Marshal(set)
	resp := pushBundle(t, base, BundleRequest{
		Name: "edge", Revision: "v1", Contracts: setJSON, Suppressions: []string{suppressed},
	})
	if resp.ID == "" || !resp.Activated {
		t.Fatalf("push response = %+v, want persisted + activated", resp)
	}
	if resp.Contracts != eff.Len() || resp.Suppressed != 1 {
		t.Errorf("push counts = %d/%d, want %d effective, 1 suppressed", resp.Contracts, resp.Suppressed, eff.Len())
	}
	if got := defaultCheckViolations(t, base, test); !bytes.Equal(got, wantJSON) {
		t.Errorf("served violations diverge from effective-set one-shot:\n got %s\nwant %s", got, wantJSON)
	}

	// The store holds the bundle and the LKG pointer names it.
	if lkg, err := srv.Store().LastKnownGood(); err != nil || lkg != resp.ID {
		t.Errorf("LKG = %q, %v; want %q", lkg, err, resp.ID)
	}
	status, body := getJSON(t, base+"/v1/bundles")
	if status != http.StatusOK {
		t.Fatalf("GET /v1/bundles = %d: %s", status, body)
	}
	var list BundlesResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if list.ActiveID != resp.ID || list.LastKnownGood != resp.ID || len(list.Bundles) != 1 {
		t.Errorf("bundle list = %+v, want active/LKG %s with 1 bundle", list, resp.ID)
	}
}

// TestServeBundleRollback: a bad push — unparseable contracts, or a
// persist fault injected mid-write — must leave the previous serving
// set untouched, keep the last-known-good pointer on the old bundle,
// and commit nothing new to the store.
func TestServeBundleRollback(t *testing.T) {
	defer faultinject.Reset()
	set := learnSet(t)
	test := fixtureSources(3)
	dir := t.TempDir()
	srv, base := startServer(t, core.DefaultOptions(), Options{BundleDir: dir})
	setJSON, _ := json.Marshal(set)
	good := pushBundle(t, base, BundleRequest{Name: "good", Contracts: setJSON})
	ref := defaultCheckViolations(t, base, test)

	// Unparseable contracts: client error, nothing changes.
	resp, err := http.Post(base+"/v1/bundles", "application/json",
		strings.NewReader(`{"name":"bad","contracts":{"corrupt":`))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := readAll(resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unparseable push = %d, want 400: %s", resp.StatusCode, data)
	}

	// Persist fault mid-write: the server contains it (500), the old
	// set keeps serving, and no new bundle committed.
	faultinject.Set("bundle.store.write", faultinject.PanicOn("disk died", "manifest"))
	status, body := postJSON(t, base+"/v1/bundles", BundleRequest{Name: "torn", Contracts: setJSON})
	if status != http.StatusInternalServerError {
		t.Fatalf("torn push = %d, want 500: %s", status, body)
	}
	faultinject.Reset()

	if got := defaultCheckViolations(t, base, test); !bytes.Equal(got, ref) {
		t.Errorf("serving set changed across failed pushes")
	}
	if id, _ := srv.ActiveBundle(); id != good.ID {
		t.Errorf("active bundle = %s, want %s", id, good.ID)
	}
	if lkg, err := srv.Store().LastKnownGood(); err != nil || lkg != good.ID {
		t.Errorf("LKG = %q, %v; want %q", lkg, err, good.ID)
	}
	bundles, _, err := srv.Store().Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles) != 1 || bundles[0].Manifest.ID != good.ID {
		t.Errorf("store holds %d bundles after failed pushes, want only %s", len(bundles), good.ID)
	}
}

// TestServeReloadUnderLoad swaps the serving set while clients keep
// checking against it: a single SIGHUP-style Reload of a staged bundle,
// and a soak of revision-bumped pushes with a broken push mixed in.
func TestServeReloadUnderLoad(t *testing.T) {
	t.Run("staged-reload", testReloadStaged)
	t.Run("push-soak", testReloadPushSoak)
}

// testReloadStaged: concurrent default-set checks run while Reload
// hot-swaps a newer bundle in; no request may fail, and after the swap
// the server serves the new bundle.
func testReloadStaged(t *testing.T) {
	set := learnSet(t)
	if set.Len() < 2 {
		t.Fatalf("learned set too small: %d", set.Len())
	}
	smaller := bundle.New("v2", "", bundle.RoleServe,
		set, nil, []string{set.Contracts[0].ID()})
	test := fixtureSources(2)
	dir := t.TempDir()
	srv, base := startServer(t, core.DefaultOptions(), Options{BundleDir: dir})
	setJSON, _ := json.Marshal(set)
	first := pushBundle(t, base, BundleRequest{Name: "v1", Contracts: setJSON})

	// Stage the newer bundle directly in the store — the SIGHUP path's
	// on-disk handoff (e.g. `concord bundle pack`).
	if _, err := srv.Store().Write(smaller); err != nil {
		t.Fatal(err)
	}

	const hammers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	failures := make(chan string, 256)
	for h := 0; h < hammers; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				body, _ := json.Marshal(CheckRequest{Configs: toJSONSources(test)})
				resp, err := http.Post(base+"/v1/check", "application/json", bytes.NewReader(body))
				if err != nil {
					failures <- err.Error()
					continue
				}
				data, _ := readAll(resp)
				if resp.StatusCode != http.StatusOK {
					failures <- resp.Status + ": " + string(data)
				}
			}
		}(h)
	}
	time.Sleep(20 * time.Millisecond) // let the hammers get going
	fp, err := srv.Reload(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // swap under continued load
	close(stop)
	wg.Wait()
	close(failures)
	for f := range failures {
		t.Fatalf("request failed during reload: %s", f)
	}

	id, activeFP := srv.ActiveBundle()
	if id == first.ID || activeFP != fp {
		t.Errorf("active after reload = %s/%s, want the newer bundle (fp %s)", id, activeFP, fp)
	}
	// Reload with nothing newer is a no-op.
	fp2, err := srv.Reload(context.Background())
	if err != nil || fp2 != fp {
		t.Errorf("idempotent reload = %s, %v; want %s", fp2, err, fp)
	}
	// The new effective set is what's served now.
	want, err := core.MustNew(core.DefaultOptions()).Check(smaller.Effective(), test, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want.Violations)
	if got := defaultCheckViolations(t, base, test); !bytes.Equal(got, wantJSON) {
		t.Errorf("post-reload serving set is not the new bundle's effective set")
	}
}

// testReloadPushSoak is the hot-reload endurance gate: 50
// revision-bumped bundle pushes, with a broken push before every 10th,
// while two clients check continuously against the default set. No
// request may fail, a rejected push must leave the active bundle
// untouched, and a whole-corpus batch check after every swap must stay
// byte-identical (violations, coverage and stats) to the first one.
func testReloadPushSoak(t *testing.T) {
	set := learnSet(t)
	setJSON, _ := json.Marshal(set)
	corpus := fixtureSources(12)
	// A duplicated router-id gives the batch output violations to keep
	// identical, not just an empty list.
	corpus = append(corpus, core.Source{Name: "dup.cfg", Text: []byte(
		"hostname dup\ninterface Loopback0\n   ip address 10.0.99.1\n" +
			"router bgp 65000\n   router-id 10.0.1.1\n   vlan 990\n")})
	srv, base := startServer(t, core.DefaultOptions(), Options{BundleDir: t.TempDir()})
	batchOutput := func() []byte {
		t.Helper()
		status, body := postJSON(t, base+"/v1/check", CheckRequest{Configs: toJSONSources(corpus)})
		if status != http.StatusOK {
			t.Fatalf("batch check = %d: %s", status, body)
		}
		var cr CheckResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatal(err)
		}
		out, _ := json.Marshal(struct {
			Violations []contracts.Violation
			Coverage   core.CoverageSummary
			Stats      core.ProcessStats
		}{cr.Violations, cr.Coverage, cr.Stats})
		return out
	}
	pushBundle(t, base, BundleRequest{Name: "soak", Revision: "r0", Contracts: setJSON})
	ref := batchOutput()
	if !bytes.Contains(ref, []byte(`"contract_id"`)) {
		t.Fatalf("reference batch has no violations; identity check is vacuous: %s", ref)
	}

	const clients = 2
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var failed, done [clients]int
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				src := corpus[(c+i)%len(corpus)]
				body, _ := json.Marshal(CheckRequest{Configs: toJSONSources([]core.Source{src})})
				resp, err := http.Post(base+"/v1/check", "application/json", bytes.NewReader(body))
				if err != nil {
					failed[c]++
					continue
				}
				if _, err := readAll(resp); err != nil || resp.StatusCode != http.StatusOK {
					failed[c]++
				}
				done[c]++
			}
		}(c)
	}

	const swaps = 50
	for i := 1; i <= swaps; i++ {
		if i%10 == 0 {
			before, _ := srv.ActiveBundle()
			resp, err := http.Post(base+"/v1/bundles", "application/json",
				strings.NewReader(`{"name":"soak-bad","contracts":{"corrupt":`))
			if err != nil {
				t.Fatal(err)
			}
			if data, _ := readAll(resp); resp.StatusCode == http.StatusOK {
				t.Fatalf("broken push %d was accepted: %s", i, data)
			}
			if after, _ := srv.ActiveBundle(); after != before {
				t.Fatalf("broken push %d moved the active bundle from %s to %s", i, before, after)
			}
		}
		pushed := pushBundle(t, base, BundleRequest{Name: "soak", Revision: fmt.Sprintf("r%d", i), Contracts: setJSON})
		if id, _ := srv.ActiveBundle(); id != pushed.ID {
			t.Fatalf("push %d: active bundle = %s, want %s", i, id, pushed.ID)
		}
		if out := batchOutput(); !bytes.Equal(out, ref) {
			t.Fatalf("batch output after swap %d diverges:\n got %s\nwant %s", i, out, ref)
		}
	}
	close(stop)
	wg.Wait()
	for c := 0; c < clients; c++ {
		if failed[c] != 0 {
			t.Errorf("client %d: %d of %d requests failed during the soak", c, failed[c], done[c])
		}
		if done[c] == 0 {
			t.Errorf("client %d completed no requests; the soak ran without load", c)
		}
	}
}

// readAll drains and closes a response body.
func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// TestServeRestartRecovery is the end-to-end crash-recovery gate: a
// daemon with a bundle store and a completed learn job goes away; a new
// daemon over the same directory must come back serving the last-known-
// good bundle, with the job still queryable and its learned set
// re-registered under the same fingerprint.
func TestServeRestartRecovery(t *testing.T) {
	set := learnSet(t)
	test := fixtureSources(3)
	dir := t.TempDir()

	srv1, base1 := startServer(t, core.DefaultOptions(), Options{BundleDir: dir})
	setJSON, _ := json.Marshal(set)
	pushed := pushBundle(t, base1, BundleRequest{Name: "prod", Contracts: setJSON})
	ref := defaultCheckViolations(t, base1, test)

	// Run a learn job to completion so its bundle + journal persist.
	status, body := postJSON(t, base1+"/v1/learn", LearnRequest{Configs: toJSONSources(fixtureSources(20))})
	if status != http.StatusAccepted {
		t.Fatalf("POST /v1/learn = %d: %s", status, body)
	}
	var accepted JobStatus
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	done := pollJob(t, base1, accepted.ID, 30*time.Second)
	if done.State != JobDone || done.Result == nil || done.Result.BundleID == "" {
		t.Fatalf("job = %+v, want done with a persisted bundle", done)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh daemon over the same directory.
	srv2, base2 := startServer(t, core.DefaultOptions(), Options{BundleDir: dir})
	if id, _ := srv2.ActiveBundle(); id != pushed.ID {
		t.Fatalf("recovered active bundle = %s, want LKG %s", id, pushed.ID)
	}
	if got := defaultCheckViolations(t, base2, test); !bytes.Equal(got, ref) {
		t.Errorf("recovered serving set diverges from pre-restart output")
	}
	// The job survived with its result, marked recovered.
	status, body = getJSON(t, base2+"/v1/jobs/"+accepted.ID)
	if status != http.StatusOK {
		t.Fatalf("recovered job = %d: %s", status, body)
	}
	var rec JobStatus
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.State != JobDone || rec.Result == nil || !rec.Result.Recovered {
		t.Fatalf("recovered job = %+v, want done + recovered", rec)
	}
	if rec.Result.Fingerprint != done.Result.Fingerprint {
		t.Errorf("recovered fingerprint %s != original %s", rec.Result.Fingerprint, done.Result.Fingerprint)
	}
	// The learned set is resident again: fingerprint checks just work.
	status, body = postJSON(t, base2+"/v1/check", CheckRequest{
		Fingerprint: rec.Result.Fingerprint, Configs: toJSONSources(test),
	})
	if status != http.StatusOK {
		t.Errorf("check by recovered fingerprint = %d: %s", status, body)
	}
	// New jobs never reuse a recovered job's ID.
	status, body = postJSON(t, base2+"/v1/learn", LearnRequest{Configs: toJSONSources(fixtureSources(20))})
	if status != http.StatusAccepted {
		t.Fatalf("new learn after restart = %d: %s", status, body)
	}
	var fresh JobStatus
	if err := json.Unmarshal(body, &fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.ID == accepted.ID {
		t.Errorf("new job reused recovered job ID %s", fresh.ID)
	}
	pollJob(t, base2, fresh.ID, 30*time.Second)
}

// TestServeRestartResumesRunningJob plants a journal exactly as a
// daemon killed mid-learn leaves it: a running record with the request
// persisted. The next daemon must resume and finish the job.
func TestServeRestartResumesRunningJob(t *testing.T) {
	dir := t.TempDir()
	st, err := bundle.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(LearnRequest{Configs: toJSONSources(fixtureSources(20))})
	if err := st.Jobs().Put(bundle.JobRecord{
		ID: "learn-7", State: bundle.JobRunning,
		CreatedUnix: time.Now().Unix(), UpdatedUnix: time.Now().Unix(),
		Request: raw,
	}); err != nil {
		t.Fatal(err)
	}
	// A corrupt journal entry rides along: it must surface as a failed
	// job, not be dropped or crash recovery.
	if err := os.WriteFile(filepath.Join(dir, "jobs", "learn-3.ccb"), []byte("torn gar"), 0o644); err != nil {
		t.Fatal(err)
	}

	srv, base := startServer(t, core.DefaultOptions(), Options{BundleDir: dir})
	done := pollJob(t, base, "learn-7", 30*time.Second)
	if done.State != JobDone || done.Result == nil || done.Result.Fingerprint == "" {
		t.Fatalf("resumed job = %+v, want done with fingerprint", done)
	}
	if n := srv.rec.Counter("server.jobs_resumed"); n != 1 {
		t.Errorf("server.jobs_resumed = %d, want 1", n)
	}

	status, body := getJSON(t, base+"/v1/jobs/learn-3")
	if status != http.StatusOK {
		t.Fatalf("corrupt-journal job = %d: %s", status, body)
	}
	var failed JobStatus
	if err := json.Unmarshal(body, &failed); err != nil {
		t.Fatal(err)
	}
	if failed.State != JobFailed || !strings.Contains(failed.Error, "corrupt") {
		t.Errorf("corrupt-journal job = %+v, want failed with corrupt reason", failed)
	}
	if n := srv.rec.Counter("server.jobs_failed_on_recovery"); n != 1 {
		t.Errorf("server.jobs_failed_on_recovery = %d, want 1", n)
	}
	// New IDs advance past the resumed job.
	status, body = postJSON(t, base+"/v1/learn", LearnRequest{Configs: toJSONSources(fixtureSources(20))})
	if status != http.StatusAccepted {
		t.Fatalf("learn after resume = %d: %s", status, body)
	}
	var fresh JobStatus
	if err := json.Unmarshal(body, &fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.ID != "learn-8" {
		t.Errorf("next job ID = %s, want learn-8 (sequence resumed past learn-7)", fresh.ID)
	}
	pollJob(t, base, fresh.ID, 30*time.Second)
}

// pollJob polls GET /v1/jobs/{id} until the job leaves JobRunning.
func pollJob(t *testing.T, base, id string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		status, body := getJSON(t, base+"/v1/jobs/"+id)
		if status != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s = %d: %s", id, status, body)
		}
		var js JobStatus
		if err := json.Unmarshal(body, &js); err != nil {
			t.Fatal(err)
		}
		if js.State != JobRunning {
			return js
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished", id)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeMaxInflightSheds: with the cap at 1 and one request parked
// inside the pipeline, the next heavy request is shed with 429 +
// Retry-After while light endpoints stay reachable; after the parked
// request finishes, heavy requests flow again.
func TestServeMaxInflightSheds(t *testing.T) {
	defer faultinject.Reset()
	set := learnSet(t)
	srv, base := startServer(t, core.DefaultOptions(), Options{MaxInflight: 1})
	if _, err := srv.SetDefaultContracts(context.Background(), set); err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	faultinject.Set("server.request", func(key string) {
		if key == "/v1/check" {
			once.Do(func() {
				close(entered)
				<-release
			})
		}
	})

	firstDone := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(CheckRequest{Configs: toJSONSources(fixtureSources(1))})
		resp, err := http.Post(base+"/v1/check", "application/json", bytes.NewReader(body))
		if err != nil {
			firstDone <- -1
			return
		}
		readAll(resp)
		firstDone <- resp.StatusCode
	}()
	<-entered

	// At capacity: the next heavy request is shed.
	body, _ := json.Marshal(CheckRequest{Configs: toJSONSources(fixtureSources(1))})
	resp, err := http.Post(base+"/v1/check", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := readAll(resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request at capacity = %d, want 429: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response carries no Retry-After header")
	}
	// Light endpoints are never shed.
	if status, _ := getJSON(t, base+"/healthz"); status != http.StatusOK {
		t.Errorf("healthz at capacity = %d, want 200", status)
	}

	close(release)
	if st := <-firstDone; st != http.StatusOK {
		t.Fatalf("parked request = %d, want 200", st)
	}
	faultinject.Reset()
	status, _ := postJSON(t, base+"/v1/check", CheckRequest{Configs: toJSONSources(fixtureSources(1))})
	if status != http.StatusOK {
		t.Errorf("request after capacity released = %d, want 200", status)
	}
	if n := srv.rec.Counter("server.requests_shed"); n != 1 {
		t.Errorf("server.requests_shed = %d, want 1", n)
	}
}

// TestServeJobResultPinnedUntilExpiry is the eviction-loss fix: a
// finished learn job's set must survive LRU pressure for as long as the
// job is queryable, then expire with the job record and become
// evictable again.
func TestServeJobResultPinnedUntilExpiry(t *testing.T) {
	set := learnSet(t)
	if set.Len() < 2 {
		t.Fatalf("learned set too small: %d", set.Len())
	}
	// A strictly smaller set competes with the job's learned set (the
	// full set) for the single registry slot.
	pressureJSON, _ := json.Marshal(&contracts.Set{Contracts: set.Contracts[:set.Len()-1]})
	srv, base := startServer(t, core.DefaultOptions(), Options{
		RegistryMaxEntries: 1,
		JobRetention:       300 * time.Millisecond,
	})

	status, body := postJSON(t, base+"/v1/learn", LearnRequest{Configs: toJSONSources(fixtureSources(20))})
	if status != http.StatusAccepted {
		t.Fatalf("POST /v1/learn = %d: %s", status, body)
	}
	var accepted JobStatus
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	done := pollJob(t, base, accepted.ID, 30*time.Second)
	if done.State != JobDone {
		t.Fatalf("job = %+v", done)
	}
	fp := done.Result.Fingerprint

	// LRU pressure: the embedded smaller set competes for the single
	// registry slot. The job's pinned set must survive.
	status, _ = postJSON(t, base+"/v1/check", CheckRequest{Contracts: pressureJSON, Configs: toJSONSources(fixtureSources(1))})
	if status != http.StatusOK {
		t.Fatalf("pressure check = %d", status)
	}
	status, body = postJSON(t, base+"/v1/check", CheckRequest{Fingerprint: fp, Configs: toJSONSources(fixtureSources(1))})
	if status != http.StatusOK {
		t.Fatalf("job-fingerprint check under pressure = %d, want 200 (pinned): %s", status, body)
	}

	// Expiry: the janitor removes the job and unpins the set.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if status, _ = getJSON(t, base+"/v1/jobs/"+accepted.ID); status == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never expired")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if n := srv.rec.Counter("server.jobs_expired"); n < 1 {
		t.Errorf("server.jobs_expired = %d, want >= 1", n)
	}
	// Fresh pressure can now evict the unpinned set.
	status, _ = postJSON(t, base+"/v1/check", CheckRequest{Contracts: pressureJSON, Configs: toJSONSources(fixtureSources(1))})
	if status != http.StatusOK {
		t.Fatalf("post-expiry pressure check = %d", status)
	}
	status, body = postJSON(t, base+"/v1/check", CheckRequest{Fingerprint: fp, Configs: toJSONSources(fixtureSources(1))})
	if status != http.StatusBadRequest {
		t.Errorf("expired-job fingerprint = %d, want 400 (evictable after unpin): %s", status, body)
	}
}
