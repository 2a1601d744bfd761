package server

import (
	"encoding/json"
	"maps"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"concord/internal/core"
	"concord/internal/lexer"
	"concord/internal/netdata"
)

// TestServeLearnShardValidation: POST /v1/learn and POST /v1/check
// reject malformed shard selections with a 400 before any work starts
// — never by accepting a learn job doomed to fail asynchronously, and
// never by failing a check with a 500 halfway through. Both endpoints
// apply the engine's one rule (core.Options.ValidateSharding), so
// every row runs against both.
func TestServeLearnShardValidation(t *testing.T) {
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
		for _, endpoint := range []string{"/v1/learn", "/v1/check"} {
			for _, tc := range server.rows {
				req := map[string]any{"configs": train}
				if endpoint == "/v1/check" {
					req["contracts"] = set
				}
				maps.Copy(req, tc.req)
				status, body := postJSON(t, base+endpoint, req)
				if status != http.StatusBadRequest {
					t.Errorf("%s %s = %d (%s), want 400", endpoint, tc.name, status, body)
				} else if !strings.Contains(string(body), tc.want) {
					t.Errorf("%s %s error %s does not mention %q", endpoint, tc.name, body, tc.want)
				}
			}
		}
	}

	// The same learn request without the backend override still learns
	// fine.
	status, body := postJSON(t, fbase+"/v1/learn", LearnRequest{Configs: train})
	if status != http.StatusAccepted {
		t.Fatalf("in-process learn on func-token server = %d: %s", status, body)
	}
	var accepted JobStatus
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	pollJob(t, fbase, accepted.ID, 30*time.Second)
}

// TestServeShardedLearnJob runs the async learn flow unsharded,
// in-process sharded, and process-backend sharded over one corpus: all
// three jobs must register learned sets under the identical fingerprint
// with identical contract counts and corpus statistics.
func TestServeShardedLearnJob(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	train := fixtureSources(24)
	engineOpts := core.DefaultOptions()
	engineOpts.ShardWorkerCommand = []string{exe}
	_, base := startServer(t, engineOpts, Options{})

	learn := func(req LearnRequest) *LearnResult {
		t.Helper()
		status, body := postJSON(t, base+"/v1/learn", req)
		if status != http.StatusAccepted {
			t.Fatalf("POST /v1/learn (shards=%d backend=%q) = %d: %s", req.Shards, req.ShardBackend, status, body)
		}
		var accepted JobStatus
		if err := json.Unmarshal(body, &accepted); err != nil {
			t.Fatal(err)
		}
		done := pollJob(t, base, accepted.ID, 60*time.Second)
		if done.State != JobDone || done.Result == nil {
			t.Fatalf("job %s (shards=%d backend=%q) = %+v, want done with result",
				accepted.ID, req.Shards, req.ShardBackend, done)
		}
		return done.Result
	}

	want := learn(LearnRequest{Configs: toJSONSources(train)})
	if want.Contracts == 0 {
		t.Fatal("baseline learn mined no contracts; the corpus does not exercise the miners")
	}
	for _, req := range []LearnRequest{
		{Configs: toJSONSources(train), Shards: 3},
		{Configs: toJSONSources(train), Shards: 3, ShardWorkers: 2, ShardBackend: core.ShardBackendProcess},
		{Configs: toJSONSources(train), ShardBackend: core.ShardBackendProcess},
	} {
		got := learn(req)
		if got.Fingerprint != want.Fingerprint {
			t.Errorf("shards=%d backend=%q: fingerprint %s diverges from unsharded %s",
				req.Shards, req.ShardBackend, got.Fingerprint, want.Fingerprint)
		}
		if got.Contracts != want.Contracts {
			t.Errorf("shards=%d backend=%q: %d contracts, want %d", req.Shards, req.ShardBackend, got.Contracts, want.Contracts)
		}
		if got.Stats != want.Stats {
			t.Errorf("shards=%d backend=%q: stats %+v diverge from %+v", req.Shards, req.ShardBackend, got.Stats, want.Stats)
		}
	}

	// The sharded fingerprint is immediately checkable, like any other.
	status, body := postJSON(t, base+"/v1/check", CheckRequest{
		Fingerprint: want.Fingerprint, Configs: toJSONSources(fixtureSources(3)),
	})
	if status != http.StatusOK {
		t.Errorf("check by sharded-learn fingerprint = %d: %s", status, body)
	}
}

// TestServeShardedLearnJournalRoundTrip: the shard selection rides the
// journaled request, so a daemon restarted mid-job resumes the learn
// under the backend it was submitted with.
func TestServeShardedLearnJournalRoundTrip(t *testing.T) {
	raw, err := json.Marshal(LearnRequest{
		Configs: toJSONSources(fixtureSources(2)), Shards: 5, ShardWorkers: 2,
		ShardBackend: core.ShardBackendInProcess,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got LearnRequest
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Shards != 5 || got.ShardWorkers != 2 || got.ShardBackend != core.ShardBackendInProcess {
		t.Errorf("journaled shard selection lost: %+v", got)
	}
}
