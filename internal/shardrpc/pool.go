// Worker-process pool for shard Tasks.
//
// Run executes one shard Task per request on a bounded pool of worker
// processes. Each worker is a child process speaking the shardrpc wire
// protocol over its stdin/stdout. The pool runs on the engine's one
// worker pool (workpool.Run): each slot is one of its workers, claims
// the next task index in order and performs the synchronous
// Task→Result round-trip on the one child process it owns.
//
// The failure taxonomy drives the policy:
//
//   - Transport failures — spawn error, broken pipe, EOF mid-frame,
//     corrupt or version-skewed frame — mean the *worker* failed, not
//     the shard: the slot kills and reaps its process and retries the
//     shard in place on a fresh one, up to maxRetries times, before the
//     shard is reported as a ShardFailure (the caller's
//     shard-containment path).
//   - In-band failures — a Result carrying a non-empty Err — mean the
//     *shard* failed deterministically (a contained panic, a strict
//     abort inside the worker): retrying would repeat it, so the
//     Result is returned as-is for the caller to interpret.
//
// Drain is unconditional: cancellation — the caller's, or FailFast's on
// the first failure — kills every live child, so a slot blocked
// mid-round-trip errors out; once every slot has returned, Run reaps
// every slot's process, so no orphan processes or goroutines survive,
// whatever the exit path.
package shardrpc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"

	"concord/internal/artifact"
	"concord/internal/telemetry"
	"concord/internal/workpool"
)

// PoolOptions configures Run.
type PoolOptions struct {
	// Command is the worker argv; Command[0] is the executable. The
	// child's environment is the parent's plus CONCORD_SHARD_WORKER=1
	// (the trampoline marker test binaries use to re-enter the worker
	// loop).
	Command []string
	// Workers bounds concurrently live worker processes. Min 1.
	Workers int
	// FailFast aborts the whole run on the first shard failure —
	// transport retries exhausted or an in-band Result.Err — killing
	// all workers (the strict-mode contract).
	FailFast bool
	// Telemetry receives the pool counters (shard.dispatches,
	// shard.retries, worker.spawns, worker.crashes) and per-shard
	// wall-time spans, named dist.shard[N]. Nil is free.
	Telemetry *telemetry.Recorder
}

// maxRetries bounds the re-runs of one shard after transport failures.
const maxRetries = 2

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

// Run executes every task of a job and returns results indexed like
// tasks, and the failures in task order. results[i] is nil when
// tasks[i] appears in failures, or when the run was aborted before
// tasks[i] completed. The returned error is non-nil only when ctx is
// cancelled; a FailFast abort returns its failure (or the in-band
// Result.Err) with a nil error.
func Run(ctx context.Context, job *Job, tasks []Task, opts PoolOptions) ([]*Result, []ShardFailure, error) {
	if len(tasks) == 0 {
		return nil, nil, nil
	}
	if len(opts.Command) == 0 {
		return nil, nil, errors.New("shardrpc: empty worker command")
	}
	ictx, cancel := context.WithCancel(ctx)
	defer cancel()

	jobFrame := artifact.EncodeFrame(JobMagic, SchemaVersion, EncodeJob(job))
	slots := make([]*slot, min(max(opts.Workers, 1), len(tasks)))
	for i := range slots {
		slots[i] = &slot{opts: &opts, jobFrame: jobFrame}
	}
	// Cancellation kills every live child; the slot blocked on it errors
	// out of its round-trip and reaps the process itself.
	killed := make(chan struct{})
	stopKill := context.AfterFunc(ictx, func() {
		defer close(killed)
		for _, sl := range slots {
			sl.kill()
		}
	})
	defer func() {
		if !stopKill() {
			<-killed
		}
	}()

	// Every slot is reaped once the pool has drained, on every exit path.
	defer func() {
		for _, sl := range slots {
			sl.reap()
		}
	}()
	results := make([]*Result, len(tasks))
	errs := make([]error, len(tasks))
	// No task fails the pool: a FailFast abort cancels ictx, which stops
	// the claims and kills the live children, and the caller's
	// cancellation is reported as ctx.Err() below.
	_ = workpool.Run(ictx, len(slots), len(tasks), func(w, i int) error {
		results[i], errs[i] = slots[w].runTask(ictx, tasks[i])
		if opts.FailFast && (errs[i] != nil || results[i] != nil && results[i].Err != "") {
			cancel()
		}
		return nil
	})

	var failures []ShardFailure
	for i, err := range errs {
		if err != nil {
			failures = append(failures, ShardFailure{Task: i, Shard: tasks[i].Shard, Err: err, Attempts: maxRetries + 1})
		}
	}
	return results, failures, ctx.Err()
}

// slot owns at most one child process at a time. Only the worker
// running the slot's tasks spawns and replaces it, and Run reaps it
// after the pool drains; mu guards proc against the cancellation kill.
type slot struct {
	opts     *PoolOptions
	jobFrame []byte

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

// runTask runs one shard on the slot's process, retrying in place on a
// fresh process after each transport failure. It returns the shard's
// Result, or its last transport error once the retries are spent, or
// neither when the run was cancelled mid-shard.
func (sl *slot) runTask(ctx context.Context, t Task) (*Result, error) {
	tel := sl.opts.Telemetry
	span := tel.StartSpan(fmt.Sprintf("dist.shard[%d]", t.Shard))
	for t.Attempt = 0; ; t.Attempt++ {
		tel.Add("shard.dispatches", 1)
		res, err := sl.roundTrip(ctx, &t)
		switch {
		case err == nil:
			span.EndCount(len(t.Sources))
			return res, nil
		case ctx.Err() != nil:
			span.EndCount(0)
			return nil, nil
		case t.Attempt == maxRetries:
			span.EndCount(0)
			return nil, err
		}
		tel.Add("shard.retries", 1)
	}
}

func (sl *slot) roundTrip(ctx context.Context, t *Task) (*Result, error) {
	proc, err := sl.ensureProc(ctx)
	if err != nil {
		return nil, err
	}
	if err := WriteTask(proc.stdin, t); err != nil {
		return nil, sl.crash(fmt.Errorf("shardrpc: write task: %w", err))
	}
	res, err := ReadResult(proc.stdout)
	if err != nil {
		return nil, sl.crash(fmt.Errorf("shardrpc: read result: %w", err))
	}
	if res.Shard != t.Shard {
		return nil, sl.crash(fmt.Errorf("shardrpc: worker answered shard %d for task shard %d", res.Shard, t.Shard))
	}
	return res, nil
}

// ensureProc returns the slot's live process, spawning one (and
// writing the Job frame) if needed.
func (sl *slot) ensureProc(ctx context.Context) (*workerProc, error) {
	if sl.proc != nil {
		return sl.proc, nil
	}
	cmd := exec.Command(sl.opts.Command[0], sl.opts.Command[1:]...)
	cmd.Env = append(os.Environ(), "CONCORD_SHARD_WORKER=1")
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
	// Publish the process under mu unless the run is already cancelled:
	// the cancellation kill either finds it here or ran before, in which
	// case ctx.Err() is already set and the process is reaped unused.
	sl.mu.Lock()
	cancelled := ctx.Err() != nil
	if !cancelled {
		sl.proc = proc
	}
	sl.mu.Unlock()
	if cancelled {
		reapProc(proc)
		return nil, ctx.Err()
	}
	if _, err := stdin.Write(sl.jobFrame); err != nil {
		return nil, sl.crash(fmt.Errorf("shardrpc: write job: %w", err))
	}
	return proc, nil
}

// crash records a dead worker: the slot's process is killed and
// reaped, leaving the slot empty for a fresh spawn, and the error is
// annotated with the worker's final stderr.
func (sl *slot) crash(err error) error {
	sl.opts.Telemetry.Add("worker.crashes", 1)
	stderr := sl.proc.stderr
	sl.reap()
	if tail := stderr.String(); tail != "" {
		err = fmt.Errorf("%w (worker stderr: %q)", err, tail)
	}
	return err
}

// kill kills the slot's live process, if any: the cancellation path,
// run from outside the slot's goroutine.
func (sl *slot) kill() {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.proc != nil {
		sl.proc.cmd.Process.Kill()
	}
}

// reap kills and waits out the slot's live process, if any, and leaves
// the slot empty.
func (sl *slot) reap() {
	proc := sl.proc
	if proc == nil {
		return
	}
	sl.mu.Lock()
	sl.proc = nil
	sl.mu.Unlock()
	reapProc(proc)
}

// reapProc kills and waits out a process, releasing its pipes.
func reapProc(proc *workerProc) {
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
