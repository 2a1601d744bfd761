package server

// The /v1 JSON API: request/response types and the check, coverage,
// and learn handlers. Every request resolves a contract set one of
// three ways — an embedded set (any format `concord check -contracts`
// accepts), a fingerprint of a set already resident in the registry,
// or the server's default set — and runs against the shared compiled
// entry with request-scoped telemetry and diagnostics.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"concord/internal/contracts"
	"concord/internal/core"
	"concord/internal/diag"
	"concord/internal/report"
	"concord/internal/telemetry"
)

// SourceJSON is one configuration file in a request body.
type SourceJSON struct {
	// Name identifies the file in violations and coverage rows.
	Name string `json:"name"`
	// Text is the raw file content.
	Text string `json:"text"`
}

func toSources(in []SourceJSON) []core.Source {
	if len(in) == 0 {
		return nil
	}
	out := make([]core.Source, len(in))
	for i, s := range in {
		out[i] = core.Source{Name: s.Name, Text: []byte(s.Text)}
	}
	return out
}

// CheckRequest is the body of POST /v1/check and /v1/coverage.
// Exactly one contract-set reference applies: an embedded Contracts
// document, a Fingerprint of a resident set, or (both absent) the
// server's default set.
type CheckRequest struct {
	// Contracts embeds a contract set: either the learn output envelope
	// ({"contracts": [...]}) or a bare contract array — the same
	// formats `concord check -contracts` reads.
	Contracts json.RawMessage `json:"contracts,omitempty"`
	// Fingerprint names a set already resident in the registry (as
	// returned by an earlier response or learn job).
	Fingerprint string `json:"fingerprint,omitempty"`
	// Configs is the batch of configurations to check. One element
	// checks a single config; many check a batch in one request.
	Configs []SourceJSON `json:"configs"`
	// Metadata optionally supplies metadata/outside-information files.
	Metadata []SourceJSON `json:"metadata,omitempty"`
	// Shards, with the "process" backend, splits the batch into that
	// many deterministic contiguous shards, each checked in a
	// shard-worker child process; results are byte-identical. Every
	// batch already streams (each configuration is processed, checked,
	// and released), so sharding adds only process isolation. Without
	// the process backend it is validated and otherwise ignored.
	Shards int `json:"shards,omitempty"`
	// ShardWorkers bounds concurrently running worker processes; 0
	// selects the server engine's parallelism.
	ShardWorkers int `json:"shard_workers,omitempty"`
	// ShardBackend selects where the batch runs: "" or "inprocess"
	// streams it inside the server, "process" dispatches its shards to
	// a pool of shard-worker child processes (crash retries,
	// byte-identical results). With "process", a batch of
	// shards <= 1 still executes out of process as a single shard.
	ShardBackend string `json:"shard_backend,omitempty"`
	// Telemetry requests this request's stage spans and counters in
	// the response.
	Telemetry bool `json:"telemetry,omitempty"`
}

// CheckResponse is the body of a successful POST /v1/check.
type CheckResponse struct {
	// Fingerprint is the resolved contract set's registry fingerprint;
	// later requests may send it instead of re-embedding the set.
	Fingerprint string `json:"fingerprint"`
	// Violations, Coverage, and Stats carry the check result, exactly
	// as `concord check -json` reports them.
	Violations []contracts.Violation `json:"violations"`
	Coverage   core.CoverageSummary  `json:"coverage"`
	Stats      core.ProcessStats     `json:"stats"`
	// Diagnostics lists this request's contained faults and input-guard
	// degradations; empty on a clean run.
	Diagnostics []diag.Diagnostic `json:"diagnostics,omitempty"`
	// Telemetry is the request-scoped recorder snapshot, when the
	// request asked for it.
	Telemetry *telemetry.Report `json:"telemetry,omitempty"`
	// DurationMS is the server-side wall time of the run.
	DurationMS float64 `json:"duration_ms"`
}

// CoverageResponse is the body of a successful /v1/coverage.
type CoverageResponse struct {
	Fingerprint string              `json:"fingerprint"`
	Lines       []core.LineCoverage `json:"lines"`
	Telemetry   *telemetry.Report   `json:"telemetry,omitempty"`
	DurationMS  float64             `json:"duration_ms"`
}

// decodeBody decodes a JSON request body into v, mapping oversized
// bodies (MaxBytesReader) and malformed JSON to client errors.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		code := http.StatusBadRequest
		if _, ok := err.(*http.MaxBytesError); ok {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("decoding request body: %w", err))
		return false
	}
	return true
}

// resolveEntry turns a request's contract-set reference into a resident
// registry entry. On error it has already written the response.
func (s *Server) resolveEntry(w http.ResponseWriter, r *http.Request, raw json.RawMessage, fingerprint string) (*core.RegistryEntry, bool) {
	switch {
	case len(raw) > 0:
		set, err := report.ParseContractsJSON(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return nil, false
		}
		en, err := s.reg.Acquire(r.Context(), set)
		if err != nil {
			writeError(w, statusFor(err), err)
			return nil, false
		}
		return en, true
	case fingerprint != "":
		en, err := s.reg.AcquireByFingerprint(r.Context(), fingerprint)
		if err != nil {
			writeError(w, statusFor(err), err)
			return nil, false
		}
		return en, true
	default:
		en := s.defaultContracts()
		if en == nil {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("no contract set: request embeds none, names no fingerprint, and the server has no default (-contracts)"))
			return nil, false
		}
		return en, true
	}
}

// requestRecorder builds the span-limited recorder that captures one
// request's engine stages.
func requestRecorder() *telemetry.Recorder {
	rec := telemetry.NewRecorder()
	rec.SetSpanLimit(requestSpanLimit)
	return rec
}

// handleCheck answers POST /v1/check: resolve the contract set, run the
// shared compiled checker over the request's configurations under the
// per-request deadline, and report violations, coverage, stats, and
// diagnostics.
func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	var req CheckRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Configs) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%w: request carries no configs", core.ErrNoSources))
		return
	}
	// A shard selection the engine would refuse — core's one rule,
	// Options.ValidateSharding, which also refuses the process backend
	// for options that cannot cross a process boundary — is a 400
	// before any work starts.
	opts := s.engineOpts
	opts.Shards, opts.ShardWorkers, opts.ShardBackend = req.Shards, req.ShardWorkers, req.ShardBackend
	if err := opts.ValidateSharding(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	en, ok := s.resolveEntry(w, r, req.Contracts, req.Fingerprint)
	if !ok {
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	start := time.Now()
	rec := requestRecorder()
	res, err := en.CheckShardedContext(ctx, toSources(req.Configs), toSources(req.Metadata), rec, req.Shards, req.ShardWorkers, req.ShardBackend)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	rep := rec.Snapshot()
	s.rec.Merge(rep)
	resp := CheckResponse{
		Fingerprint: en.Fingerprint(),
		Violations:  res.Violations,
		Coverage:    res.Coverage,
		Stats:       res.Stats,
		Diagnostics: res.Diagnostics,
		DurationMS:  float64(time.Since(start)) / float64(time.Millisecond),
	}
	if req.Telemetry {
		resp.Telemetry = &rep
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCoverage answers /v1/coverage (GET or POST, same body as
// /v1/check): per-line coverage of the request's configurations under
// the resolved contract set.
func (s *Server) handleCoverage(w http.ResponseWriter, r *http.Request) {
	var req CheckRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Configs) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%w: request carries no configs", core.ErrNoSources))
		return
	}
	en, ok := s.resolveEntry(w, r, req.Contracts, req.Fingerprint)
	if !ok {
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	start := time.Now()
	rec := requestRecorder()
	lines, err := en.CoverageLinesContext(ctx, toSources(req.Configs), toSources(req.Metadata), rec)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	rep := rec.Snapshot()
	s.rec.Merge(rep)
	resp := CoverageResponse{
		Fingerprint: en.Fingerprint(),
		Lines:       lines,
		DurationMS:  float64(time.Since(start)) / float64(time.Millisecond),
	}
	if req.Telemetry {
		resp.Telemetry = &rep
	}
	writeJSON(w, http.StatusOK, resp)
}
