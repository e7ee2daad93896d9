package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mawilab/internal/trace"
)

// Admission-control errors returned by Engine.Enqueue.
var (
	// ErrQueueFull rejects a job when the bounded queue is at capacity —
	// the HTTP layer maps it to 429 with a Retry-After hint.
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining rejects a job once graceful shutdown has begun — the
	// HTTP layer maps it to 503.
	ErrDraining = errors.New("serve: draining, not accepting jobs")
)

// Admission is what Enqueue did with an upload.
type Admission int

const (
	// Rejected accompanies an error: no job, the payload stays with the
	// caller.
	Rejected Admission = iota
	// Adopted: a new job was queued and owns the payload.
	Adopted
	// Duplicate: a queued or running job already covers the digest; Enqueue
	// returned it and left the payload with the caller.
	Duplicate
	// Cached: the digest is already labeled and stored; there is no job and
	// the payload stays with the caller.
	Cached
)

// JobState is the lifecycle phase of a labeling job.
type JobState string

// Job lifecycle states.
const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// Job is one labeling unit of work: a decoded trace waiting for, running
// through, or finished with the pipeline. The exported fields are the
// /v1/jobs wire representation.
type Job struct {
	ID         string    `json:"id"`
	Digest     string    `json:"digest"`
	Trace      string    `json:"trace"`
	Packets    int       `json:"packets"`
	State      JobState  `json:"state"`
	Error      string    `json:"error,omitempty"`
	EnqueuedAt time.Time `json:"enqueued_at"`
	StartedAt  time.Time `json:"started_at,omitzero"`
	FinishedAt time.Time `json:"finished_at,omitzero"`

	// payload carries the decoded trace from admission to the worker; the
	// engine drops it when the job leaves the running state so finished
	// jobs don't pin packet memory.
	payload *trace.Index
}

// maxFinishedJobs bounds the finished jobs an Engine remembers: past it the
// oldest is forgotten (its job ID answers 404; its labels stay in the store,
// reachable by digest), so a long-lived daemon does not grow by one Job per
// upload. Queued and running jobs are never forgotten; the bound sits far
// above any queue depth.
const maxFinishedJobs = 4096

// Engine schedules labeling jobs across a fixed set of workers behind a
// bounded queue: admission control (ErrQueueFull / ErrDraining) at the
// front, per-job timeouts in the middle, and a graceful drain — finish
// every accepted job, accept nothing new — at the back.
type Engine struct {
	run     func(ctx context.Context, j *Job, ix *trace.Index) error
	queue   chan *Job
	timeout time.Duration

	mu       sync.Mutex
	jobs     map[string]*Job
	finished []string        // IDs of the finished jobs in jobs, oldest first
	byDigest map[string]*Job // queued/running job per digest, for dedup
	seq      int
	draining bool
	closed   bool

	wg       sync.WaitGroup
	inflight atomic.Int64
	// JobSeconds, when non-nil, observes each finished job's wall-clock
	// run time. Assigned once before the first Enqueue.
	JobSeconds *Histogram
	// Finished, when non-nil, is called with each job's terminal state
	// (done/failed) after the transition. Assigned once before the first
	// Enqueue; must not call back into the engine.
	Finished func(state JobState)
	// Stored, when non-nil, reports whether a finished labeling of the digest
	// is already persisted, in which case Enqueue starts no job. It is called
	// under the engine's lock, in the same critical section as the
	// active-job lookup: run persists a labeling before it returns and the
	// job stays active until after run returned, so an upload whose twin has
	// ever been admitted finds the job or the entry — never neither, which
	// is what a check made before Enqueue could see. Assigned once before
	// the first Enqueue; must not block or call back into the engine.
	Stored func(digest string) bool
}

// NewEngine starts `workers` worker goroutines over a queue of `depth`
// slots. run executes one job; timeout > 0 bounds each run with a context
// deadline. Call Drain to stop.
func NewEngine(workers, depth int, timeout time.Duration, run func(ctx context.Context, j *Job, ix *trace.Index) error) *Engine {
	if workers <= 0 {
		workers = 1
	}
	if depth <= 0 {
		depth = 1
	}
	e := &Engine{
		run:      run,
		queue:    make(chan *Job, depth),
		timeout:  timeout,
		jobs:     make(map[string]*Job),
		byDigest: make(map[string]*Job),
	}
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go e.worker() //mawilint:allow baregoroutine — long-lived job workers over a bounded queue; jobs are independent, keyed by digest, and drained by Close
	}
	return e
}

// Enqueue admits a new job for the decoded trace (Adopted: the engine now
// owns ix), or returns the active (queued/running) job already covering
// the same digest (Duplicate), or finds the digest already labeled and
// stored (Cached, nil job) — an upload racing an identical upload never
// computes twice. On every outcome but Adopted a caller holding pooled
// resources releases its copy. ErrDraining and ErrQueueFull reject what
// would have been a new job; an upload that needs none is still answered
// while draining.
func (e *Engine) Enqueue(digest, traceName string, packets int, ix *trace.Index) (*Job, Admission, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if j, ok := e.byDigest[digest]; ok {
		return j.snapshot(), Duplicate, nil
	}
	if e.Stored != nil && e.Stored(digest) {
		return nil, Cached, nil
	}
	if e.draining {
		return nil, Rejected, ErrDraining
	}
	e.seq++
	j := &Job{
		ID:         fmt.Sprintf("j-%d", e.seq),
		Digest:     digest,
		Trace:      traceName,
		Packets:    packets,
		State:      JobQueued,
		EnqueuedAt: time.Now().UTC(),
		payload:    ix,
	}
	select {
	case e.queue <- j:
	default:
		e.seq--
		return nil, Rejected, ErrQueueFull
	}
	e.jobs[j.ID] = j
	e.byDigest[digest] = j
	return j.snapshot(), Adopted, nil
}

// Job returns a copy of the job's current state; false for an unknown job,
// or a finished one past the maxFinishedJobs most recent.
func (e *Engine) Job(id string) (Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j.snapshot(), true
}

// Active returns the queued/running job covering a digest, if any.
func (e *Engine) Active(digest string) (Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.byDigest[digest]
	if !ok {
		return Job{}, false
	}
	return *j.snapshot(), true
}

// Depth returns the number of queued (admitted, not yet running) jobs.
func (e *Engine) Depth() int { return len(e.queue) }

// Inflight returns the number of jobs currently running.
func (e *Engine) Inflight() int64 { return e.inflight.Load() }

// Drain begins graceful shutdown: new admissions fail with ErrDraining,
// every already-accepted job (queued or running) runs to completion, and
// Drain returns when the workers have gone idle — or with ctx's error if
// the deadline expires first (jobs keep finishing in the background).
func (e *Engine) Drain(ctx context.Context) error {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		e.draining = true
		close(e.queue)
	}
	e.mu.Unlock()

	done := make(chan struct{})
	go func() { //mawilint:allow baregoroutine — drain helper converting wg.Wait into a channel for the ctx select; one per shutdown
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether graceful shutdown has begun.
func (e *Engine) Draining() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.draining
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for j := range e.queue {
		e.runOne(j)
	}
}

func (e *Engine) runOne(j *Job) {
	e.mu.Lock()
	j.State = JobRunning
	j.StartedAt = time.Now().UTC()
	payload := j.payload
	snap := j.snapshot()
	e.mu.Unlock()
	e.inflight.Add(1)
	defer e.inflight.Add(-1)

	ctx := context.Background()
	if e.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.timeout)
		defer cancel()
	}
	err := e.run(ctx, snap, payload)

	e.mu.Lock()
	j.FinishedAt = time.Now().UTC()
	j.payload = nil
	// Only now, with run's entry persisted: see Engine.Stored.
	delete(e.byDigest, j.Digest)
	if err != nil {
		j.State = JobFailed
		j.Error = err.Error()
	} else {
		j.State = JobDone
	}
	e.finished = append(e.finished, j.ID)
	if len(e.finished) > maxFinishedJobs {
		delete(e.jobs, e.finished[0])
		e.finished = e.finished[1:]
	}
	// Hooks fire before the terminal state becomes observable via Job(),
	// so a poller that sees "done" also sees the job in the metrics.
	if e.JobSeconds != nil {
		e.JobSeconds.Observe(j.FinishedAt.Sub(j.StartedAt).Seconds())
	}
	if e.Finished != nil {
		e.Finished(j.State)
	}
	e.mu.Unlock()
}

// snapshot copies the job without its payload for hand-off across the API
// boundary. Caller holds e.mu (or owns the job exclusively).
func (j *Job) snapshot() *Job {
	c := *j
	c.payload = nil
	return &c
}
