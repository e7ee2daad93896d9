// Package parallel provides the bounded concurrency primitives used by the
// labeling pipeline: Pool, a worker pool with context cancellation and
// first-error propagation, and three helpers over it that preserve
// deterministic, index-ordered results — ForEach (one call per item),
// ForEachRange (one call per contiguous chunk) and Map (ForEach gathering
// one result per item).
//
// Every helper takes a worker count; n <= 0 selects DefaultWorkers() and
// n == 1 runs inline on the calling goroutine. Parallel runs write results
// into index-addressed slots, so output order never depends on goroutine
// scheduling — the property the pipeline's determinism guarantee is built on.
package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync"
)

// DefaultWorkers returns the default pool size: runtime.GOMAXPROCS(0).
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Clamp normalizes a requested worker count for n work items: non-positive
// counts become DefaultWorkers(), and the result never exceeds n (so pools
// do not spawn idle goroutines).
func Clamp(workers, n int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if n > 0 && workers > n {
		workers = n
	}
	return workers
}

// Pool is a bounded worker pool. At most `workers` submitted tasks run
// concurrently; Go blocks the caller while the pool is saturated, so a
// submission loop is itself throttled. The first task error (or the
// context's error) cancels the pool context, after which pending Go calls
// return without running their task.
type Pool struct {
	ctx    context.Context
	cancel context.CancelFunc
	sem    chan struct{}
	wg     sync.WaitGroup

	mu  sync.Mutex
	err error
}

// NewPool returns a pool bounded to `workers` concurrent tasks (<= 0 means
// DefaultWorkers()), derived from ctx: cancelling ctx stops the pool.
func NewPool(ctx context.Context, workers int) *Pool {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	pctx, cancel := context.WithCancel(ctx)
	return &Pool{ctx: pctx, cancel: cancel, sem: make(chan struct{}, workers)}
}

// Go submits one task. It blocks until a worker slot frees up, then runs fn
// on its own goroutine with the pool context. If the pool is already
// cancelled the task is dropped and the cancellation cause recorded.
func (p *Pool) Go(fn func(ctx context.Context) error) {
	if err := p.ctx.Err(); err != nil {
		p.fail(err)
		return
	}
	select {
	case p.sem <- struct{}{}:
	case <-p.ctx.Done():
		p.fail(p.ctx.Err())
		return
	}
	p.wg.Add(1)
	go func() {
		defer func() {
			<-p.sem
			p.wg.Done()
		}()
		if err := fn(p.ctx); err != nil {
			p.fail(err)
		}
	}()
}

// fail records the first error and cancels the pool.
func (p *Pool) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
	p.cancel()
}

// Wait blocks until every submitted task has finished and returns the first
// recorded error, if any. The pool context is released; the pool must not be
// reused afterwards.
func (p *Pool) Wait() error {
	p.wg.Wait()
	p.cancel()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// ForEach runs fn(ctx, i) for every i in [0, n) on at most `workers`
// goroutines. With workers == 1 the calls run inline, in order, stopping at
// the first error — the sequential reference path. In parallel runs the
// first error cancels the shared context and the remaining items are
// skipped; the error returned is the one from the lowest-index *genuine*
// failure. In-flight items that merely observe the pool's internal
// cancellation report context.Canceled — those echoes never mask the root
// cause, whatever their index. A cancelled parent context surfaces as
// ctx.Err() once in-flight items drain.
func ForEach(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Clamp(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	pool := NewPool(ctx, workers)
	for i := 0; i < n; i++ {
		i := i
		pool.Go(func(ctx context.Context) error {
			errs[i] = fn(ctx, i)
			return errs[i]
		})
	}
	poolErr := pool.Wait()
	// Prefer the lowest-index genuine failure. A task that observed the
	// pool's internal cancellation (triggered by some other task's error)
	// records context.Canceled — returning that would hide the root cause
	// behind a spurious "cancelled", so cancellation echoes only surface
	// when nothing better exists.
	var echo error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
		if echo == nil {
			echo = err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if echo != nil {
		return echo
	}
	return poolErr
}

// ForEachRange splits [0, n) into one contiguous chunk per worker (after
// Clamp) and runs fn(ctx, lo, hi) once per non-empty chunk, one chunk per
// goroutine. It is the fan-out for stages whose writes are index-addressed
// slots: contiguous ranges keep the writes cache-friendly and the chunk
// boundaries cannot affect the result, so the output is identical at every
// worker count. workers == 1 runs the single full-range chunk inline: the
// sequential reference path. Error semantics match ForEach.
func ForEachRange(ctx context.Context, n, workers int, fn func(ctx context.Context, lo, hi int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	chunks := Clamp(workers, n)
	return ForEach(ctx, chunks, chunks, func(ctx context.Context, c int) error {
		return fn(ctx, c*n/chunks, (c+1)*n/chunks)
	})
}

// Map runs fn(ctx, i) for every i in [0, n) on at most `workers` goroutines
// and gathers the results in index order — the fan-in side of a fan-out.
// Error semantics match ForEach.
func Map[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, n, workers, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
