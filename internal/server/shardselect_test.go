package server

import (
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"concord/internal/bundle"
	"concord/internal/core"
	"concord/internal/lexer"
	"concord/internal/netdata"
)

// TestServeCheckShardValidation: POST /v1/check rejects a malformed
// shard selection with a 400 before any work starts, never by failing
// a check with a 500 halfway through. The endpoint applies the
// engine's one rule, core.Options.ValidateSharding. A learn job always
// streams inside the server, so /v1/learn reads no shard selection: the
// same fields on a learn body are ignored, even a process backend the
// server could not serialize its options for.
func TestServeCheckShardValidation(t *testing.T) {
	train := toJSONSources(fixtureSources(4))
	set := learnSet(t)
	// A server whose engine options carry a func-valued user token can
	// serve in-process work, but the process backend must be refused:
	// the Parse func cannot cross the process boundary.
	funcOpts := core.DefaultOptions()
	funcOpts.UserTokens = []lexer.TokenSpec{{
		Name:    "odd",
		Pattern: `odd[0-9]+`,
		Parse:   func(s string) (netdata.Value, error) { return nil, nil },
	}}
	type row struct {
		name string
		req  map[string]any
		want string
	}
	var fbase string
	for _, server := range []struct {
		opts core.Options
		rows []row
	}{
		{core.DefaultOptions(), []row{
			{"negative shards", map[string]any{"shards": -1}, "non-negative"},
			{"negative workers", map[string]any{"shard_workers": -2}, "non-negative"},
			{"unknown backend", map[string]any{"shard_backend": "threads"}, "unknown shard backend"},
		}},
		{funcOpts, []row{
			{"process backend over func token", map[string]any{"shard_backend": core.ShardBackendProcess}, "cannot serialize"},
			{"sharded process backend over func token", map[string]any{"shards": 2, "shard_backend": core.ShardBackendProcess}, "cannot serialize"},
		}},
	} {
		// Servers start one after the other so each one's goroutine
		// baseline already counts the previous one's client connections.
		_, base := startServer(t, server.opts, Options{})
		fbase = base
		for _, tc := range server.rows {
			req := map[string]any{"configs": train, "contracts": set}
			maps.Copy(req, tc.req)
			status, body := postJSON(t, base+"/v1/check", req)
			if status != http.StatusBadRequest {
				t.Errorf("/v1/check %s = %d (%s), want 400", tc.name, status, body)
			} else if !strings.Contains(string(body), tc.want) {
				t.Errorf("/v1/check %s error %s does not mention %q", tc.name, body, tc.want)
			}
		}
	}

	// The func-token server still learns, in process, from a body that
	// names the process backend.
	status, body := postJSON(t, fbase+"/v1/learn", map[string]any{
		"configs": train, "shards": 2, "shard_backend": core.ShardBackendProcess,
	})
	if status != http.StatusAccepted {
		t.Fatalf("learn with shard fields on func-token server = %d: %s", status, body)
	}
	var accepted JobStatus
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	if done := pollJob(t, fbase, accepted.ID, 30*time.Second); done.State != JobDone {
		t.Errorf("learn with shard fields on func-token server = %+v, want done", done)
	}
}

// noWorkerOptions are engine options whose shard worker command names a
// file that does not exist, so any attempt to dispatch a shard to a
// worker process fails instead of silently succeeding.
func noWorkerOptions(t *testing.T) core.Options {
	opts := core.DefaultOptions()
	opts.ShardWorkerCommand = []string{filepath.Join(t.TempDir(), "no-such-worker")}
	return opts
}

// learnBody posts a learn body, waits for the job, and returns its
// result; the job must finish done.
func learnBody(t *testing.T, base string, body any) *LearnResult {
	t.Helper()
	status, resp := postJSON(t, base+"/v1/learn", body)
	if status != http.StatusAccepted {
		t.Fatalf("POST /v1/learn = %d: %s", status, resp)
	}
	var accepted JobStatus
	if err := json.Unmarshal(resp, &accepted); err != nil {
		t.Fatal(err)
	}
	done := pollJob(t, base, accepted.ID, 60*time.Second)
	if done.State != JobDone || done.Result == nil {
		t.Fatalf("job %s = %+v, want done with result", accepted.ID, done)
	}
	return done.Result
}

// assertSameLearn requires two learn jobs to have registered the same
// set with the same corpus statistics.
func assertSameLearn(t *testing.T, label string, got, want *LearnResult) {
	t.Helper()
	if got.Fingerprint != want.Fingerprint {
		t.Errorf("%s: fingerprint %s, want %s", label, got.Fingerprint, want.Fingerprint)
	}
	if got.Contracts != want.Contracts {
		t.Errorf("%s: %d contracts, want %d", label, got.Contracts, want.Contracts)
	}
	if got.Stats != want.Stats {
		t.Errorf("%s: stats %+v, want %+v", label, got.Stats, want.Stats)
	}
}

// TestServeShardedLearnJob: learn bodies that still carry the shard
// fields (an in-process selection, a process backend with and without a
// shard count) learn in the server exactly what a plain body learns.
// The worker command points nowhere, so a dispatch would fail the job.
func TestServeShardedLearnJob(t *testing.T) {
	train := toJSONSources(fixtureSources(24))
	_, base := startServer(t, noWorkerOptions(t), Options{})

	want := learnBody(t, base, LearnRequest{Configs: train})
	if want.Contracts == 0 {
		t.Fatal("baseline learn mined no contracts; the corpus does not exercise the miners")
	}
	for _, fields := range []map[string]any{
		{"shards": 3},
		{"shards": 3, "shard_workers": 2, "shard_backend": core.ShardBackendProcess},
		{"shard_backend": core.ShardBackendProcess},
	} {
		body := map[string]any{"configs": train}
		maps.Copy(body, fields)
		assertSameLearn(t, fmt.Sprintf("learn with %v", fields), learnBody(t, base, body), want)
	}

	// The learned fingerprint is immediately checkable, like any other.
	status, body := postJSON(t, base+"/v1/check", CheckRequest{
		Fingerprint: want.Fingerprint, Configs: toJSONSources(fixtureSources(3)),
	})
	if status != http.StatusOK {
		t.Errorf("check by learned fingerprint = %d: %s", status, body)
	}
}

// TestServeShardedLearnJournalRoundTrip: a learn job journaled by an
// older server may carry a process-backend shard selection in its
// persisted request. A daemon restarted over that journal must resume
// the job in process and register the set a plain learn of the same
// corpus registers — the same fingerprint. The worker command points
// nowhere, so a dispatch would fail the job.
func TestServeShardedLearnJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := bundle.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	train := toJSONSources(fixtureSources(20))
	raw, err := json.Marshal(map[string]any{
		"configs": train, "shards": 3, "shard_workers": 2, "shard_backend": core.ShardBackendProcess,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Jobs().Put(bundle.JobRecord{
		ID: "learn-4", State: bundle.JobRunning,
		CreatedUnix: time.Now().Unix(), UpdatedUnix: time.Now().Unix(),
		Request: raw,
	}); err != nil {
		t.Fatal(err)
	}

	srv, base := startServer(t, noWorkerOptions(t), Options{BundleDir: dir})
	resumed := pollJob(t, base, "learn-4", 60*time.Second)
	if resumed.State != JobDone || resumed.Result == nil {
		t.Fatalf("resumed job = %+v, want done with result", resumed)
	}
	if n := srv.rec.Counter("server.jobs_resumed"); n != 1 {
		t.Errorf("server.jobs_resumed = %d, want 1", n)
	}
	assertSameLearn(t, "resumed job with a process-backend selection", resumed.Result,
		learnBody(t, base, LearnRequest{Configs: train}))
}
