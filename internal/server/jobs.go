package server

// Asynchronous learn jobs. Learning a contract set from a corpus takes
// orders of magnitude longer than checking against a compiled one, so
// POST /v1/learn does not hold the connection open: it enqueues a job,
// answers 202 with a job ID immediately, and the client polls
// GET /v1/jobs/{id}. A finished job's learned set is registered in the
// engine registry — and pinned there until the job record expires — so
// its fingerprint is immediately usable in /v1/check requests without
// resending the contracts, and cannot be silently LRU-evicted while the
// job is still queryable.
//
// With a bundle store configured, jobs are crash-safe: each state
// change is journaled to disk (the running record carries the original
// request), and a done job's learned set is persisted as a RoleJob
// bundle. A killed daemon recovers on restart: running jobs resume from
// their journaled request, done jobs re-register their sets from the
// persisted bundle, and undecodable journal entries are marked failed
// with a diagnostic instead of being forgotten.
//
// Jobs run under the server's base context: graceful drain waits for
// running jobs up to the drain deadline, then cancels them
// cooperatively through the engine's context plumbing.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"concord/internal/bundle"
	"concord/internal/core"
	"concord/internal/diag"
	"concord/internal/minimize"
	"concord/internal/telemetry"
)

// Job states (the same strings the bundle journal persists).
const (
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// LearnRequest is the body of POST /v1/learn. A learn job always
// streams inside the server, so it has none of CheckRequest's shard
// fields; a body, or a job journaled by an older server, that still
// carries them learns the same set.
type LearnRequest struct {
	// Configs is the training corpus.
	Configs []SourceJSON `json:"configs"`
	// Metadata optionally supplies metadata/outside-information files.
	Metadata []SourceJSON `json:"metadata,omitempty"`
	// Telemetry requests the learn run's stage spans in the job result.
	Telemetry bool `json:"telemetry,omitempty"`
}

// LearnResult is the payload of a finished learn job.
type LearnResult struct {
	// Fingerprint is the learned set's registry fingerprint; the set is
	// resident and ready for fingerprint-referencing check requests.
	Fingerprint string `json:"fingerprint"`
	// Contracts counts the learned contracts.
	Contracts int `json:"contracts"`
	// BundleID names the persisted RoleJob bundle holding the learned
	// set, when the server runs with a bundle store.
	BundleID string `json:"bundle_id,omitempty"`
	// Stats summarizes the processed corpus.
	Stats core.ProcessStats `json:"stats"`
	// Minimization reports the contract reduction.
	Minimization minimize.Result `json:"minimization"`
	// Diagnostics lists contained faults from the learn run.
	Diagnostics []diag.Diagnostic `json:"diagnostics,omitempty"`
	// Telemetry is the job-scoped recorder snapshot, when requested.
	Telemetry *telemetry.Report `json:"telemetry,omitempty"`
	// DurationMS is the learn run's wall time.
	DurationMS float64 `json:"duration_ms"`
	// Recovered marks a result reconstructed from a persisted bundle
	// after a daemon restart (Stats/Minimization/DurationMS are not
	// recoverable and are zero).
	Recovered bool `json:"recovered,omitempty"`
}

// JobStatus is the body of GET /v1/jobs/{id} (and the 202 from
// POST /v1/learn, with only ID and State set).
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Error explains a failed job.
	Error string `json:"error,omitempty"`
	// Result carries a done job's payload.
	Result *LearnResult `json:"result,omitempty"`
}

// job is one tracked learn job.
type job struct {
	id string

	mu       sync.Mutex
	state    string
	err      error
	result   *LearnResult
	created  time.Time
	finished time.Time
	// entry is the learned set's registry entry, pinned against LRU
	// eviction until the job record expires.
	entry *core.RegistryEntry
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{ID: j.id, State: j.state, Result: j.result}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

func (j *job) finish(res *LearnResult, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	if err != nil {
		j.state, j.err = JobFailed, err
		return
	}
	j.state, j.result = JobDone, res
}

// setEntry records the pinned registry entry behind a done job.
func (j *job) setEntry(en *core.RegistryEntry) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.entry = en
}

// takeEntry removes and returns the pinned entry (nil if none), so the
// expiry sweep unpins exactly once.
func (j *job) takeEntry() *core.RegistryEntry {
	j.mu.Lock()
	defer j.mu.Unlock()
	en := j.entry
	j.entry = nil
	return en
}

// jobStats summarizes the store for /healthz.
type jobStats struct {
	Running int `json:"running"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`
}

// jobStore tracks learn jobs by ID. Finished jobs stay queryable until
// the retention sweep expires them (job payloads are small: a
// fingerprint and summary counts, not the contract set itself).
type jobStore struct {
	mu   sync.Mutex
	seq  int
	jobs map[string]*job
	wg   sync.WaitGroup
}

func newJobStore() *jobStore {
	return &jobStore{jobs: make(map[string]*job)}
}

// create registers a new running job.
func (s *jobStore) create() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	j := &job{id: fmt.Sprintf("learn-%d", s.seq), state: JobRunning, created: time.Now()}
	s.jobs[j.id] = j
	s.wg.Add(1)
	return j
}

// adopt re-registers a job recovered from the journal under its
// original ID, advancing the ID sequence past it so new jobs never
// collide with recovered ones. A job adopted as running counts against
// the drain WaitGroup exactly like a fresh one.
func (s *jobStore) adopt(id, state string, created, finished time.Time) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := jobSeq(id); n > s.seq {
		s.seq = n
	}
	j := &job{id: id, state: state, created: created, finished: finished}
	s.jobs[id] = j
	if state == JobRunning {
		s.wg.Add(1)
	}
	return j
}

// jobSeq extracts N from a "learn-N" job ID (0 for foreign IDs).
func jobSeq(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "learn-%d", &n); err == nil {
		return n
	}
	return 0
}

// get returns a job by ID.
func (s *jobStore) get(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// wait blocks until every running job has finished.
func (s *jobStore) wait() { s.wg.Wait() }

// expire removes finished jobs older than retention and returns them so
// the caller can unpin their registry entries and drop their journal
// records. Running jobs never expire.
func (s *jobStore) expire(now time.Time, retention time.Duration) []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*job
	for id, j := range s.jobs {
		j.mu.Lock()
		terminal := j.state != JobRunning
		fin := j.finished
		j.mu.Unlock()
		if terminal && !fin.IsZero() && now.Sub(fin) >= retention {
			delete(s.jobs, id)
			out = append(out, j)
		}
	}
	return out
}

func (s *jobStore) stats() jobStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st jobStats
	for _, j := range s.jobs {
		switch j.status().State {
		case JobRunning:
			st.Running++
		case JobDone:
			st.Done++
		case JobFailed:
			st.Failed++
		}
	}
	return st
}

// handleLearn answers POST /v1/learn: start an asynchronous learn job
// over the request's corpus and answer 202 with its ID.
func (s *Server) handleLearn(w http.ResponseWriter, r *http.Request) {
	var req LearnRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Configs) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%w: learn request carries no configs", core.ErrNoSources))
		return
	}
	j := s.jobs.create()
	s.rec.Add("server.learn_jobs", 1)
	if s.store != nil {
		// Journal the job as running with the request persisted, so a
		// killed daemon resumes it on restart. A journaling failure is a
		// diagnostic, not a request failure — the job still runs, it just
		// will not survive a crash.
		raw, err := json.Marshal(req)
		if err == nil {
			err = s.store.Jobs().Put(bundle.JobRecord{
				ID:          j.id,
				State:       bundle.JobRunning,
				CreatedUnix: j.created.Unix(),
				UpdatedUnix: j.created.Unix(),
				Request:     raw,
			})
		}
		if err != nil {
			s.diags.Addf(diag.SevWarn, "server", j.id, 0, "journaling learn job: %v", err)
		}
	}
	go s.runLearnJob(j, req)
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, JobStatus{ID: j.id, State: JobRunning})
}

// failJob finishes j as failed and journals the terminal state.
func (s *Server) failJob(j *job, err error) {
	j.finish(nil, err)
	s.journalFinish(j, nil, err)
}

// journalFinish rewrites a finished job's journal record (no-op without
// a bundle store). Failures degrade to diagnostics.
func (s *Server) journalFinish(j *job, res *LearnResult, jobErr error) {
	if s.store == nil {
		return
	}
	rec := bundle.JobRecord{
		ID:          j.id,
		CreatedUnix: j.created.Unix(),
		UpdatedUnix: time.Now().Unix(),
	}
	if jobErr != nil {
		rec.State = bundle.JobFailed
		rec.Error = jobErr.Error()
	} else {
		rec.State = bundle.JobDone
		rec.BundleID = res.BundleID
		rec.Fingerprint = res.Fingerprint
		rec.Contracts = res.Contracts
	}
	if err := s.store.Jobs().Put(rec); err != nil {
		s.diags.Addf(diag.SevWarn, "server", j.id, 0, "journaling learn job result: %v", err)
	}
}

// runLearnJob executes one learn job under the server's base context,
// with the same panic containment as a request handler.
func (s *Server) runLearnJob(j *job, req LearnRequest) {
	defer s.jobs.wg.Done()
	defer func() {
		if rec := recover(); rec != nil {
			s.rec.Add("server.panics", 1)
			s.diags.Add(diag.FromPanic("server", "/v1/learn/"+j.id, rec))
			s.failJob(j, fmt.Errorf("learn job panicked: %v", rec))
		}
	}()
	start := time.Now()
	rec := requestRecorder()

	// Learning mutates mining state, so each job gets its own cold
	// engine rather than a shared resident one; only the learned set's
	// compiled entry is shared afterwards, via the registry.
	opts := s.engineOpts
	opts.Telemetry = rec
	opts.Diagnostics = nil
	opts.Progress = nil
	eng, err := core.New(opts)
	if err != nil {
		s.failJob(j, err)
		return
	}
	ctx := s.baseCtx
	if s.opts.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.RequestTimeout)
		defer cancel()
	}
	lr, err := eng.LearnContext(ctx, toSources(req.Configs), toSources(req.Metadata))
	if err != nil {
		s.failJob(j, err)
		return
	}
	// Register the learned set so fingerprint-referencing checks start
	// warm; a registration failure fails the job (the fingerprint is
	// the job's whole point). The entry is pinned until the job record
	// expires, so LRU pressure from other tenants cannot evict a result
	// the client has not collected yet.
	en, err := s.reg.Acquire(ctx, lr.Set)
	if err != nil {
		s.failJob(j, fmt.Errorf("registering learned set: %w", err))
		return
	}
	s.reg.Pin(en)
	j.setEntry(en)
	var bundleID string
	if s.store != nil {
		// Persist the learned set as a job-role bundle so a restarted
		// daemon can re-register it without relearning. Job bundles are
		// never activation candidates for the default serving set.
		jb := bundle.New(j.id, "", bundle.RoleJob, lr.Set, nil, nil)
		if id, werr := s.store.Write(jb); werr != nil {
			s.diags.Addf(diag.SevWarn, "bundle", j.id, 0, "persisting learned set: %v", werr)
		} else {
			bundleID = id
		}
	}
	rep := rec.Snapshot()
	s.rec.Merge(rep)
	res := &LearnResult{
		Fingerprint:  en.Fingerprint(),
		Contracts:    lr.Set.Len(),
		BundleID:     bundleID,
		Stats:        lr.Stats,
		Minimization: lr.Minimization,
		Diagnostics:  lr.Diagnostics,
		DurationMS:   float64(time.Since(start)) / float64(time.Millisecond),
	}
	if req.Telemetry {
		res.Telemetry = &rep
	}
	j.finish(res, nil)
	s.journalFinish(j, res, nil)
}

// recoverJobs replays the learn-job journal after a restart:
// resume-or-mark-failed. Running jobs with a recoverable request are
// re-run; done jobs re-register their learned set from the persisted
// bundle (pinned, like a fresh result); failed jobs come back
// queryable; corrupt or unresumable entries are marked failed with a
// diagnostic — never silently dropped.
func (s *Server) recoverJobs() error {
	if s.store == nil {
		return nil
	}
	recs, corrupt, err := s.store.Jobs().Replay()
	if err != nil {
		return err
	}
	for _, c := range corrupt {
		s.adoptFailed(c.ID, time.Now(),
			fmt.Errorf("journal record corrupt after restart: %s", c.Reason))
		s.diags.Addf(diag.SevWarn, "server", c.Path, 0,
			"learn job %s journal corrupt: %s", c.ID, c.Reason)
		s.rec.Add("server.jobs_failed_on_recovery", 1)
	}
	for _, rec := range recs {
		created := time.Unix(rec.CreatedUnix, 0)
		updated := time.Unix(rec.UpdatedUnix, 0)
		switch rec.State {
		case bundle.JobDone:
			s.recoverDoneJob(rec, created, updated)
		case bundle.JobFailed:
			j := s.jobs.adopt(rec.ID, JobFailed, created, updated)
			if rec.Error != "" {
				j.mu.Lock()
				j.err = errors.New(rec.Error)
				j.mu.Unlock()
			}
			s.rec.Add("server.jobs_recovered", 1)
		case bundle.JobRunning:
			var req LearnRequest
			if len(rec.Request) == 0 || json.Unmarshal(rec.Request, &req) != nil || len(req.Configs) == 0 {
				s.adoptFailed(rec.ID, updated,
					fmt.Errorf("daemon restarted mid-job and the request is not recoverable"))
				s.diags.Addf(diag.SevWarn, "server", rec.ID, 0,
					"learn job %s interrupted by restart; request not recoverable", rec.ID)
				s.rec.Add("server.jobs_failed_on_recovery", 1)
				continue
			}
			j := s.jobs.adopt(rec.ID, JobRunning, created, time.Time{})
			s.rec.Add("server.jobs_resumed", 1)
			go s.runLearnJob(j, req)
		}
	}
	return nil
}

// recoverDoneJob rebuilds a done job from its persisted bundle: the
// learned set is re-registered (and pinned) so its fingerprint works in
// check requests exactly as before the restart.
func (s *Server) recoverDoneJob(rec bundle.JobRecord, created, updated time.Time) {
	fail := func(err error) {
		s.adoptFailed(rec.ID, updated, err)
		s.diags.Addf(diag.SevWarn, "server", rec.ID, 0, "recovering learn job %s: %v", rec.ID, err)
		s.rec.Add("server.jobs_failed_on_recovery", 1)
	}
	if rec.BundleID == "" {
		fail(fmt.Errorf("learned set was not persisted; result lost in restart"))
		return
	}
	b, err := s.store.Load(rec.BundleID)
	if err != nil {
		fail(fmt.Errorf("loading learned bundle: %w", err))
		return
	}
	set := b.Effective()
	en, err := s.reg.Acquire(s.baseCtx, set)
	if err != nil {
		fail(fmt.Errorf("re-registering learned set: %w", err))
		return
	}
	s.reg.Pin(en)
	j := s.jobs.adopt(rec.ID, JobDone, created, updated)
	j.mu.Lock()
	j.entry = en
	j.result = &LearnResult{
		Fingerprint: en.Fingerprint(),
		Contracts:   set.Len(),
		BundleID:    rec.BundleID,
		Recovered:   true,
	}
	j.mu.Unlock()
	s.rec.Add("server.jobs_recovered", 1)
}

// adoptFailed registers a recovered-as-failed job and rewrites its
// journal record so the next restart replays it cleanly.
func (s *Server) adoptFailed(id string, finished time.Time, err error) {
	j := s.jobs.adopt(id, JobFailed, finished, finished)
	j.mu.Lock()
	j.err = err
	j.mu.Unlock()
	if perr := s.store.Jobs().Put(bundle.JobRecord{
		ID:          id,
		State:       bundle.JobFailed,
		CreatedUnix: finished.Unix(),
		UpdatedUnix: finished.Unix(),
		Error:       err.Error(),
	}); perr != nil {
		s.diags.Addf(diag.SevWarn, "server", id, 0, "rewriting failed job record: %v", perr)
	}
}

// expireJobs is the retention sweep: finished jobs older than
// JobRetention stop being queryable, their pinned registry entries are
// released to the LRU, and their journal records are deleted.
func (s *Server) expireJobs(now time.Time) {
	for _, j := range s.jobs.expire(now, s.opts.JobRetention) {
		if en := j.takeEntry(); en != nil {
			s.reg.Unpin(en)
		}
		if s.store != nil {
			if err := s.store.Jobs().Delete(j.id); err != nil {
				s.diags.Addf(diag.SevWarn, "server", j.id, 0, "deleting expired job record: %v", err)
			}
		}
		s.rec.Add("server.jobs_expired", 1)
	}
}

// handleJob answers GET /v1/jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}
