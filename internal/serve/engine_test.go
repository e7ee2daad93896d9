package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"mawilab/internal/trace"
)

// waitState polls a job until it reaches a terminal state.
func waitState(t *testing.T, e *Engine, id string, want JobState) Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := e.Job(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if j.State == want {
			return j
		}
		if j.State == JobDone || j.State == JobFailed {
			t.Fatalf("job %s reached %s, want %s (err=%q)", id, j.State, want, j.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return Job{}
}

func TestEngineAdmissionControl(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	e := NewEngine(1, 1, 0, func(_ context.Context, j *Job, _ *trace.Index) error {
		started <- j.ID
		<-release
		return nil
	})

	j1, outcome, err := e.Enqueue("d1", "t1", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != Adopted {
		t.Error("fresh enqueue should adopt the payload")
	}
	<-started // j1 is running, worker occupied

	j2, _, err := e.Enqueue("d2", "t2", 1, nil)
	if err != nil {
		t.Fatalf("second job should queue: %v", err)
	}
	if e.Depth() != 1 {
		t.Errorf("queue depth = %d, want 1", e.Depth())
	}

	// The queue (depth 1) is full: admission control rejects.
	if _, outcome, err := e.Enqueue("d3", "t3", 1, nil); !errors.Is(err, ErrQueueFull) || outcome != Rejected {
		t.Fatalf("overflow = %v (outcome %d), want ErrQueueFull, Rejected", err, outcome)
	}

	// Re-enqueueing an active digest dedups onto the existing job.
	dup, outcome, err := e.Enqueue("d2", "t2", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dup.ID != j2.ID {
		t.Errorf("dedup returned %s, want %s", dup.ID, j2.ID)
	}
	if outcome != Duplicate {
		t.Error("duplicate digest must not adopt the payload")
	}

	close(release)
	waitState(t, e, j1.ID, JobDone)
	waitState(t, e, j2.ID, JobDone)
	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestEngineJobTimeout(t *testing.T) {
	e := NewEngine(1, 1, 20*time.Millisecond, func(ctx context.Context, _ *Job, _ *trace.Index) error {
		<-ctx.Done()
		return ctx.Err()
	})
	j, _, err := e.Enqueue("d1", "t", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, e, j.ID, JobFailed)
	if got.Error == "" || got.FinishedAt.IsZero() {
		t.Errorf("failed job missing error/timestamps: %+v", got)
	}
	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestEngineDrain pins the graceful-shutdown contract: draining rejects new
// jobs but runs every accepted one — queued included — to completion.
func TestEngineDrain(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	e := NewEngine(1, 4, 0, func(_ context.Context, j *Job, _ *trace.Index) error {
		started <- j.ID
		<-release
		return nil
	})
	j1, _, _ := e.Enqueue("d1", "t", 1, nil)
	<-started
	j2, _, err := e.Enqueue("d2", "t", 1, nil) // sits in the queue
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() { drained <- e.Drain(context.Background()) }()
	deadline := time.Now().Add(5 * time.Second)
	for !e.Draining() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, _, err := e.Enqueue("d3", "t", 1, nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("enqueue while draining = %v, want ErrDraining", err)
	}
	// Draining refuses new jobs, not uploads that need none.
	if dup, outcome, err := e.Enqueue("d2", "t", 1, nil); err != nil || outcome != Duplicate || dup.ID != j2.ID {
		t.Fatalf("duplicate of a queued job while draining = %v, outcome %d, want job %s", err, outcome, j2.ID)
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range []string{j1.ID, j2.ID} {
		j, _ := e.Job(id)
		if j.State != JobDone {
			t.Errorf("job %s = %s after drain, want done", id, j.State)
		}
	}
	// Drain is idempotent.
	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestEngineDrainDeadline(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	e := NewEngine(1, 1, 0, func(_ context.Context, _ *Job, _ *trace.Index) error {
		close(started)
		<-release
		return nil
	})
	if _, _, err := e.Enqueue("d1", "t", 1, nil); err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := e.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain with stuck job = %v, want deadline exceeded", err)
	}
	close(release)
	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestEngineStoredIsCheckedWithTheActiveJob pins the critical section that
// closes the has-then-enqueue race: a job is active from Enqueue until after
// run returned, run persists before it returns, and Enqueue looks for the
// active job and asks Stored under one lock. So at every point of a job's
// life an identical upload finds the job or the entry — here probed queued,
// running, persisted-but-not-finished (run parked after its "Put"), and
// finished — and exactly one job is ever created.
func TestEngineStoredIsCheckedWithTheActiveJob(t *testing.T) {
	var (
		mu        sync.Mutex
		persisted = map[string]bool{}
	)
	running := make(chan struct{})
	persist := make(chan struct{})
	put := make(chan struct{})
	finish := make(chan struct{})
	e := NewEngine(1, 2, 0, func(_ context.Context, j *Job, _ *trace.Index) error {
		close(running)
		<-persist
		mu.Lock()
		persisted[j.Digest] = true
		mu.Unlock()
		close(put)
		<-finish
		return nil
	})
	e.Stored = func(digest string) bool {
		mu.Lock()
		defer mu.Unlock()
		return persisted[digest]
	}

	first, outcome, err := e.Enqueue("d", "t", 1, nil)
	if err != nil || outcome != Adopted {
		t.Fatalf("first enqueue: outcome %d, err %v", outcome, err)
	}
	again := func(phase string, want Admission) {
		t.Helper()
		j, outcome, err := e.Enqueue("d", "t", 1, nil)
		if err != nil || outcome != want {
			t.Fatalf("%s: outcome %d, err %v, want outcome %d", phase, outcome, err, want)
		}
		if want == Duplicate && j.ID != first.ID {
			t.Fatalf("%s: joined job %s, want %s", phase, j.ID, first.ID)
		}
		if want == Cached && j != nil {
			t.Fatalf("%s: a cached outcome carries no job, got %s", phase, j.ID)
		}
	}
	again("queued or running", Duplicate)
	<-running
	again("running", Duplicate)
	close(persist)
	<-put
	// The window the old check fell into from the other side: the entry is
	// stored and the job has not finished. Both are visible; the job wins.
	if _, active := e.Active("d"); !active || !e.Stored("d") {
		t.Fatal("a persisted, unfinished job must be both active and stored")
	}
	again("persisted, not finished", Duplicate)
	close(finish)
	waitState(t, e, first.ID, JobDone)
	again("finished", Cached)
	if _, active := e.Active("d"); active {
		t.Error("finished job still active")
	}
	if _, ok := e.Job("j-2"); ok {
		t.Error("a second job was created")
	}
	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Draining: still cached, no ErrDraining for an upload that needs no job.
	again("draining", Cached)
}

// TestEngineForgetsOldestFinishedJobs: past maxFinishedJobs the engine
// forgets its oldest finished jobs — their IDs answer 404 — and remembers the
// newest, so a long-lived daemon does not grow by one Job per upload.
func TestEngineForgetsOldestFinishedJobs(t *testing.T) {
	const n = maxFinishedJobs + 10
	s, ts := newTestServer(t, Config{QueueDepth: n})
	// The seam: a no-op work function, set before the first Enqueue (the
	// queue send orders this write before any worker's read).
	s.engine.run = func(context.Context, *Job, *trace.Index) error { return nil }
	for i := 0; i < n; i++ {
		if _, outcome, err := s.engine.Enqueue(fmt.Sprint("d", i), "t", 0, nil); err != nil || outcome != Adopted {
			t.Fatalf("enqueue %d: outcome %d, err %v", i, outcome, err)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.engine.mu.Lock()
	remembered := len(s.engine.jobs)
	s.engine.mu.Unlock()
	if remembered != maxFinishedJobs {
		t.Errorf("engine remembers %d jobs, want the bound %d", remembered, maxFinishedJobs)
	}
	for id, want := range map[string]int{
		"j-1":               http.StatusNotFound,
		"j-10":              http.StatusNotFound,
		"j-11":              http.StatusOK,
		fmt.Sprint("j-", n): http.StatusOK,
	} {
		if code, _, _ := get(t, ts.URL+"/v1/jobs/"+id, nil); code != want {
			t.Errorf("GET /v1/jobs/%s = %d, want %d", id, code, want)
		}
	}
}
