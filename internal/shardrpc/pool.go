// Worker-process pool and straggler-tolerant shard scheduler.
//
// Run executes one shard Task per request against a bounded pool of
// worker processes. Each worker is a child process speaking the
// shardrpc wire protocol over its stdin/stdout; a goroutine per pool
// slot owns the process and performs the synchronous Task→Result
// round-trip, while the central scheduler assigns shards to idle
// slots, re-dispatches shards whose worker crashed (bounded retries),
// and speculatively re-runs stragglers past a latency multiple of the
// median completed shard, first result wins.
//
// The failure taxonomy drives the policy:
//
//   - Transport failures — spawn error, broken pipe, EOF mid-frame,
//     corrupt or version-skewed frame — mean the *worker* failed, not
//     the shard: the process is killed and reaped, the slot respawns
//     lazily, and the shard is re-dispatched up to MaxRetries times
//     before it is reported as a ShardFailure (the caller's
//     shard-containment path).
//   - In-band failures — a Result carrying a non-empty Err — mean the
//     *shard* failed deterministically (a contained panic, a strict
//     abort inside the worker): retrying would repeat it, so the
//     Result is returned as-is for the caller to interpret.
//
// Drain is unconditional: every spawned process is killed and reaped
// and every slot goroutine joined before Run returns, so no orphan
// processes or goroutines survive, whatever the exit path.
package shardrpc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"sync"
	"time"

	"concord/internal/artifact"
	"concord/internal/telemetry"
)

// PoolOptions configures Run.
type PoolOptions struct {
	// Command is the worker argv; Command[0] is the executable. The
	// child's environment is the parent's plus Env plus
	// CONCORD_SHARD_WORKER=1 (the trampoline marker test binaries use
	// to re-enter the worker loop).
	Command []string
	// Env is extra "KEY=value" entries appended to the child env.
	Env []string
	// Workers bounds concurrently live worker processes. Min 1.
	Workers int
	// MaxRetries bounds re-dispatches of one shard after transport
	// failures; negative selects the default (2).
	MaxRetries int
	// SpeculativeMultiple: a shard still running after this multiple of
	// the median completed-shard duration (and past SpeculativeFloor)
	// is speculatively re-dispatched to an idle worker, first result
	// wins. Zero selects the default (4); negative disables
	// speculation.
	SpeculativeMultiple float64
	// SpeculativeFloor is the minimum age before any speculation; zero
	// selects the default (2s).
	SpeculativeFloor time.Duration
	// FailFast aborts the whole run on the first shard failure —
	// transport retries exhausted or an in-band Result.Err — killing
	// all workers (the strict-mode contract).
	FailFast bool
	// Telemetry receives the scheduler counters (shard.dispatches,
	// shard.retries, shard.speculative_wins, worker.spawns,
	// worker.crashes) and per-shard wall-time spans, named
	// dist.shard[N]. Nil is free.
	Telemetry *telemetry.Recorder
}

const (
	defaultMaxRetries   = 2
	defaultSpecMultiple = 4.0
	defaultSpecFloor    = 2 * time.Second
)

// ShardFailure reports one shard the pool could not complete: its
// transport retries were exhausted. In-band worker failures are not
// ShardFailures — they come back as Results with Err set.
type ShardFailure struct {
	// Task is the index into Run's tasks slice.
	Task int
	// Shard is tasks[Task].Shard, for labeling.
	Shard int
	// Err is the last transport error.
	Err error
	// Attempts counts dispatches, the initial one included.
	Attempts int
}

// Run executes every task of a job and returns results
// indexed like tasks. results[i] is nil exactly when tasks[i] appears
// in failures. The returned error is non-nil only for run-level aborts:
// context cancellation, or the first failure under FailFast.
func Run(ctx context.Context, job *Job, tasks []Task, opts PoolOptions) ([]*Result, []ShardFailure, error) {
	if len(tasks) == 0 {
		return nil, nil, nil
	}
	if len(opts.Command) == 0 {
		return nil, nil, errors.New("shardrpc: empty worker command")
	}
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if opts.Workers > len(tasks) {
		opts.Workers = len(tasks)
	}
	if opts.MaxRetries < 0 {
		opts.MaxRetries = defaultMaxRetries
	}
	if opts.SpeculativeMultiple == 0 {
		opts.SpeculativeMultiple = defaultSpecMultiple
	}
	if opts.SpeculativeFloor <= 0 {
		opts.SpeculativeFloor = defaultSpecFloor
	}
	s := &scheduler{
		opts:    opts,
		job:     job,
		tasks:   tasks,
		results: make([]*Result, len(tasks)),
		state:   make([]taskState, len(tasks)),
		events:  make(chan event, opts.Workers),
	}
	return s.run(ctx)
}

// event is one slot's report back to the scheduler: a result, or a
// transport error.
type event struct {
	slot    int
	task    int
	spec    bool
	res     *Result
	err     error
	elapsed time.Duration
}

// attempt is one dispatch order to a slot.
type attempt struct {
	task    int
	attempt int
	spec    bool
}

type taskState struct {
	done     bool
	failed   bool
	dispatch int // total dispatches so far
	retries  int // transport-failure re-dispatches consumed
	running  int // attempts currently in flight
	started  time.Time
	spec     bool // a speculative attempt was issued
	span     *telemetry.Span
	slots    []int // slots currently running this task
}

type scheduler struct {
	opts    PoolOptions
	job     *Job
	tasks   []Task
	results []*Result
	state   []taskState

	events chan event
	slots  []*slot

	completed []time.Duration
	pending   []int
	idle      []int
}

func (s *scheduler) run(ctx context.Context) ([]*Result, []ShardFailure, error) {
	ictx, cancel := context.WithCancel(ctx)
	defer cancel()

	jobFrame := artifact.EncodeFrame(JobMagic, SchemaVersion, EncodeJob(s.job))
	var wg sync.WaitGroup
	s.slots = make([]*slot, s.opts.Workers)
	for i := range s.slots {
		sl := &slot{
			id:       i,
			opts:     &s.opts,
			tasks:    s.tasks,
			jobFrame: jobFrame,
			reqs:     make(chan attempt),
			events:   s.events,
		}
		s.slots[i] = sl
		s.idle = append(s.idle, i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			sl.loop(ictx)
		}()
	}
	// Drain discipline: stop feeding, kill every live process so any
	// slot blocked mid-round-trip errors out, close request channels,
	// join the goroutines. Slot loops reap their own processes.
	defer func() {
		cancel()
		for _, sl := range s.slots {
			sl.killCurrent()
			close(sl.reqs)
		}
		wg.Wait()
	}()

	for i := range s.tasks {
		s.pending = append(s.pending, i)
	}

	var failures []ShardFailure
	remaining := len(s.tasks)
	specTick := s.opts.SpeculativeFloor / 4
	if specTick < 10*time.Millisecond {
		specTick = 10 * time.Millisecond
	}
	ticker := time.NewTicker(specTick)
	defer ticker.Stop()

	for remaining > 0 {
		s.feed()
		select {
		case <-ctx.Done():
			return s.results, failures, ctx.Err()
		case <-ticker.C:
			s.speculate()
		case ev := <-s.events:
			st := &s.state[ev.task]
			st.running--
			st.slots = removeSlot(st.slots, ev.slot)
			s.idle = append(s.idle, ev.slot)
			if st.done || st.failed {
				break // a duplicate attempt resolving after the decision
			}
			if ev.err != nil {
				if st.running > 0 {
					break // a twin attempt is still in flight; let it decide
				}
				if st.retries < s.opts.MaxRetries {
					st.retries++
					s.opts.Telemetry.Add("shard.retries", 1)
					s.pending = append([]int{ev.task}, s.pending...)
					break
				}
				st.failed = true
				st.span.EndCount(0)
				remaining--
				failures = append(failures, ShardFailure{
					Task: ev.task, Shard: s.tasks[ev.task].Shard,
					Err: ev.err, Attempts: st.dispatch,
				})
				if s.opts.FailFast {
					return s.results, failures, nil
				}
				break
			}
			st.done = true
			st.span.EndCount(len(s.tasks[ev.task].Sources))
			s.results[ev.task] = ev.res
			s.completed = append(s.completed, ev.elapsed)
			remaining--
			if ev.spec {
				s.opts.Telemetry.Add("shard.speculative_wins", 1)
			}
			// Kill the losing twin attempts; their slots report a
			// transport error that the done flag above neutralizes.
			for _, other := range append([]int(nil), st.slots...) {
				s.slots[other].killCurrent()
			}
			if s.opts.FailFast && ev.res.Err != "" {
				return s.results, failures, nil
			}
		}
	}
	return s.results, failures, nil
}

// feed assigns pending tasks to idle slots.
func (s *scheduler) feed() {
	for len(s.pending) > 0 && len(s.idle) > 0 {
		task := s.pending[0]
		s.pending = s.pending[1:]
		sl := s.idle[0]
		s.idle = s.idle[1:]
		s.dispatch(task, sl, false)
	}
}

func (s *scheduler) dispatch(task, slotID int, spec bool) {
	st := &s.state[task]
	if st.dispatch == 0 {
		st.span = s.opts.Telemetry.StartSpan(fmt.Sprintf("dist.shard[%d]", s.tasks[task].Shard))
		st.started = time.Now()
	}
	a := attempt{task: task, attempt: st.dispatch, spec: spec}
	st.dispatch++
	st.running++
	st.slots = append(st.slots, slotID)
	if spec {
		st.spec = true
	}
	s.opts.Telemetry.Add("shard.dispatches", 1)
	s.slots[slotID].reqs <- a
}

// speculate re-dispatches the oldest straggler when workers sit idle:
// a task with exactly one attempt in flight, older than
// max(floor, multiple × median completed duration), gets a duplicate
// dispatch; whichever attempt returns first wins.
func (s *scheduler) speculate() {
	if s.opts.SpeculativeMultiple < 0 || len(s.idle) == 0 || len(s.pending) > 0 {
		return
	}
	threshold := s.opts.SpeculativeFloor
	if len(s.completed) > 0 {
		durs := append([]time.Duration(nil), s.completed...)
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		med := time.Duration(float64(durs[len(durs)/2]) * s.opts.SpeculativeMultiple)
		if med > threshold {
			threshold = med
		}
	}
	var oldest, oldestIdx = time.Duration(0), -1
	for i := range s.state {
		st := &s.state[i]
		if st.done || st.failed || st.running != 1 || st.spec {
			continue
		}
		if age := time.Since(st.started); age > threshold && age > oldest {
			oldest, oldestIdx = age, i
		}
	}
	if oldestIdx < 0 {
		return
	}
	sl := s.idle[0]
	s.idle = s.idle[1:]
	s.dispatch(oldestIdx, sl, true)
}

func removeSlot(slots []int, id int) []int {
	for i, s := range slots {
		if s == id {
			return append(slots[:i], slots[i+1:]...)
		}
	}
	return slots
}

// --- worker slot: owns at most one child process at a time ---

type slot struct {
	id       int
	opts     *PoolOptions
	tasks    []Task
	jobFrame []byte
	reqs     chan attempt
	events   chan<- event

	mu   sync.Mutex
	proc *workerProc
}

// workerProc is one live child process.
type workerProc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout io.ReadCloser
	stderr *tailBuffer
}

func (sl *slot) loop(ctx context.Context) {
	defer sl.reapCurrent()
	for a := range sl.reqs {
		start := time.Now()
		res, err := sl.roundTrip(ctx, a)
		sl.events <- event{
			slot: sl.id, task: a.task, spec: a.spec,
			res: res, err: err, elapsed: time.Since(start),
		}
	}
}

func (sl *slot) roundTrip(ctx context.Context, a attempt) (*Result, error) {
	proc, err := sl.ensureProc(ctx)
	if err != nil {
		return nil, err
	}
	t := sl.taskFor(a)
	if err := WriteTask(proc.stdin, &t); err != nil {
		return nil, sl.crash(proc, fmt.Errorf("shardrpc: write task: %w", err))
	}
	res, err := ReadResult(proc.stdout)
	if err != nil {
		return nil, sl.crash(proc, fmt.Errorf("shardrpc: read result: %w", err))
	}
	if res.Shard != t.Shard {
		return nil, sl.crash(proc, fmt.Errorf("shardrpc: worker answered shard %d for task shard %d", res.Shard, t.Shard))
	}
	return res, nil
}

func (sl *slot) taskFor(a attempt) Task {
	t := sl.tasks[a.task]
	t.Attempt = a.attempt
	return t
}

// ensureProc returns the slot's live process, spawning one (and
// writing the Job frame) if needed.
func (sl *slot) ensureProc(ctx context.Context) (*workerProc, error) {
	sl.mu.Lock()
	if sl.proc != nil {
		p := sl.proc
		sl.mu.Unlock()
		return p, nil
	}
	sl.mu.Unlock()

	cmd := exec.Command(sl.opts.Command[0], sl.opts.Command[1:]...)
	cmd.Env = append(os.Environ(), "CONCORD_SHARD_WORKER=1")
	cmd.Env = append(cmd.Env, sl.opts.Env...)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("shardrpc: worker stdin: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("shardrpc: worker stdout: %w", err)
	}
	stderr := &tailBuffer{limit: 4096}
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("shardrpc: spawn worker: %w", err)
	}
	sl.opts.Telemetry.Add("worker.spawns", 1)
	proc := &workerProc{cmd: cmd, stdin: stdin, stdout: stdout, stderr: stderr}
	if ctx.Err() != nil {
		sl.reap(proc)
		return nil, ctx.Err()
	}
	if _, err := stdin.Write(sl.jobFrame); err != nil {
		return nil, sl.crash(proc, fmt.Errorf("shardrpc: write job: %w", err))
	}
	sl.mu.Lock()
	sl.proc = proc
	sl.mu.Unlock()
	return proc, nil
}

// crash records a dead worker: the process is killed and reaped, the
// slot left empty for a lazy respawn, and the error annotated with the
// worker's final stderr.
func (sl *slot) crash(proc *workerProc, err error) error {
	sl.opts.Telemetry.Add("worker.crashes", 1)
	sl.reap(proc)
	if tail := proc.stderr.String(); tail != "" {
		err = fmt.Errorf("%w (worker stderr: %q)", err, tail)
	}
	return err
}

// killCurrent kills the slot's live process, if any. The slot's
// goroutine, if blocked mid-round-trip on that process, errors out of
// the read and reports a transport failure.
func (sl *slot) killCurrent() {
	sl.mu.Lock()
	proc := sl.proc
	sl.mu.Unlock()
	if proc != nil {
		proc.cmd.Process.Kill()
	}
}

// reapCurrent kills and waits out the slot's live process, if any —
// the slot goroutine's exit path, so no zombie survives the drain.
func (sl *slot) reapCurrent() {
	sl.mu.Lock()
	proc := sl.proc
	sl.mu.Unlock()
	if proc != nil {
		sl.reap(proc)
	}
}

// reap kills and waits out a process, releasing its pipes.
func (sl *slot) reap(proc *workerProc) {
	sl.mu.Lock()
	if sl.proc == proc {
		sl.proc = nil
	}
	sl.mu.Unlock()
	proc.cmd.Process.Kill()
	proc.stdin.Close()
	proc.cmd.Wait()
}

// tailBuffer retains the last limit bytes written, concurrency-safe:
// enough of a crashed worker's stderr to make transport errors
// debuggable without retaining unbounded output.
type tailBuffer struct {
	mu    sync.Mutex
	limit int
	b     []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.b = append(t.b, p...)
	if len(t.b) > t.limit {
		t.b = append(t.b[:0], t.b[len(t.b)-t.limit:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.b)
}
