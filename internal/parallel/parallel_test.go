package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestClamp(t *testing.T) {
	if got := Clamp(0, 100); got != DefaultWorkers() {
		t.Errorf("Clamp(0, 100) = %d, want DefaultWorkers %d", got, DefaultWorkers())
	}
	if got := Clamp(-3, 100); got != DefaultWorkers() {
		t.Errorf("Clamp(-3, 100) = %d, want DefaultWorkers %d", got, DefaultWorkers())
	}
	if got := Clamp(8, 3); got != 3 {
		t.Errorf("Clamp(8, 3) = %d, want 3", got)
	}
	if got := Clamp(2, 100); got != 2 {
		t.Errorf("Clamp(2, 100) = %d, want 2", got)
	}
}

func TestForEachVisitsEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		n := 100
		seen := make([]int32, n)
		err := ForEach(context.Background(), n, workers, func(_ context.Context, i int) error {
			atomic.AddInt32(&seen[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachBoundedConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak int32
	err := ForEach(context.Background(), 50, workers, func(_ context.Context, i int) error {
		c := atomic.AddInt32(&cur, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if c <= p || atomic.CompareAndSwapInt32(&peak, p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		atomic.AddInt32(&cur, -1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := atomic.LoadInt32(&peak); p > workers {
		t.Errorf("observed %d concurrent tasks, pool bounded to %d", p, workers)
	}
	if p := atomic.LoadInt32(&peak); p < 2 {
		t.Errorf("observed peak %d, expected actual parallelism", p)
	}
}

// TestForEachLowestIndexError: no matter which goroutine fails first, the
// error reported is the lowest failing index — deterministic across runs.
func TestForEachLowestIndexError(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		err := ForEach(context.Background(), 40, 8, func(_ context.Context, i int) error {
			if i%10 == 3 { // fails at 3, 13, 23, 33
				if i == 3 {
					time.Sleep(2 * time.Millisecond) // let a later failure land first
				}
				return fmt.Errorf("item %d failed", i)
			}
			return nil
		})
		if err == nil {
			t.Fatal("expected an error")
		}
		if got := err.Error(); got != "item 3 failed" {
			t.Fatalf("trial %d: got %q, want lowest-index error", trial, got)
		}
	}
}

// TestForEachRealErrorNotMaskedByCancellationEcho: a long-running
// low-index task that returns the cancellation it observed (triggered by a
// later task's genuine failure) must not hide the root cause.
func TestForEachRealErrorNotMaskedByCancellationEcho(t *testing.T) {
	boom := errors.New("boom")
	err := ForEach(context.Background(), 2, 2, func(ctx context.Context, i int) error {
		if i == 0 {
			<-ctx.Done() // cancelled by item 1's failure below
			return ctx.Err()
		}
		time.Sleep(time.Millisecond) // let item 0 block first
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the genuine failure, not a cancellation echo", err)
	}
}

func TestForEachErrorStopsScheduling(t *testing.T) {
	boom := errors.New("boom")
	var ran int32
	err := ForEach(context.Background(), 10_000, 2, func(_ context.Context, i int) error {
		atomic.AddInt32(&ran, 1)
		if i == 0 {
			return boom
		}
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := atomic.LoadInt32(&ran); n >= 10_000 {
		t.Errorf("all %d items ran despite early error", n)
	}
}

func TestForEachSequentialStopsAtFirstError(t *testing.T) {
	var ran int
	err := ForEach(context.Background(), 10, 1, func(_ context.Context, i int) error {
		ran++
		if i == 4 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil || ran != 5 {
		t.Fatalf("ran=%d err=%v, want 5 items and an error", ran, err)
	}
}

func TestForEachCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int32
	for _, workers := range []int{1, 4} {
		err := ForEach(ctx, 100, workers, func(_ context.Context, i int) error {
			atomic.AddInt32(&ran, 1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
	if n := atomic.LoadInt32(&ran); n != 0 {
		t.Errorf("%d items ran under a cancelled context", n)
	}
}

func TestForEachCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int32
	errc := make(chan error, 1)
	go func() {
		errc <- ForEach(ctx, 10_000, 4, func(fctx context.Context, i int) error {
			atomic.AddInt32(&ran, 1)
			select {
			case <-fctx.Done():
			case <-time.After(200 * time.Microsecond):
			}
			return nil
		})
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ForEach did not return after cancellation")
	}
	if n := atomic.LoadInt32(&ran); n >= 10_000 {
		t.Error("cancellation did not stop scheduling")
	}
}

func TestMapOrdered(t *testing.T) {
	for _, workers := range []int{1, 8} {
		out, err := Map(context.Background(), 64, workers, func(_ context.Context, i int) (int, error) {
			time.Sleep(time.Duration(64-i) * 10 * time.Microsecond) // finish out of order
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapError(t *testing.T) {
	boom := errors.New("boom")
	out, err := Map(context.Background(), 10, 4, func(_ context.Context, i int) (int, error) {
		if i == 7 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) || out != nil {
		t.Fatalf("got (%v, %v), want (nil, boom)", out, err)
	}
}

func TestPoolFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	p := NewPool(context.Background(), 2)
	var after int32
	p.Go(func(context.Context) error { return boom })
	p.Go(func(ctx context.Context) error {
		select {
		case <-ctx.Done(): // the failure above must cancel us
		case <-time.After(5 * time.Second):
			t.Error("pool context never cancelled after error")
		}
		atomic.AddInt32(&after, 1)
		return errors.New("later")
	})
	if err := p.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait = %v, want first error", err)
	}
	if atomic.LoadInt32(&after) != 1 {
		t.Error("second task did not run to completion")
	}
}

func TestPoolDropsTasksAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := NewPool(ctx, 1)
	var ran int32
	started := make(chan struct{})
	p.Go(func(ctx context.Context) error {
		close(started)
		<-ctx.Done()
		return nil
	})
	<-started
	cancel()
	// The single worker slot is held until the first task observes Done;
	// this submission must be dropped rather than deadlock.
	p.Go(func(context.Context) error {
		atomic.AddInt32(&ran, 1)
		return nil
	})
	if err := p.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	if atomic.LoadInt32(&ran) != 0 {
		t.Error("task ran after pool cancellation")
	}
}

func TestPoolThrottlesSubmitter(t *testing.T) {
	p := NewPool(context.Background(), 2)
	var cur, peak int32
	var mu sync.Mutex
	for i := 0; i < 20; i++ {
		p.Go(func(context.Context) error {
			c := atomic.AddInt32(&cur, 1)
			mu.Lock()
			if c > peak {
				peak = c
			}
			mu.Unlock()
			time.Sleep(500 * time.Microsecond)
			atomic.AddInt32(&cur, -1)
			return nil
		})
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if peak > 2 {
		t.Errorf("peak concurrency %d exceeds pool bound 2", peak)
	}
}

func TestForEachZeroItems(t *testing.T) {
	if err := ForEach(context.Background(), 0, 4, func(context.Context, int) error {
		t.Fatal("fn called for empty range")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachRangeCoversEveryIndexOnce(t *testing.T) {
	// Chunks must tile [0, n) exactly — every index written once, for worker
	// counts below, at and above n.
	for _, n := range []int{1, 7, 64} {
		for _, workers := range []int{1, 3, n, n + 5} {
			hits := make([]int32, n)
			err := ForEachRange(context.Background(), n, workers, func(_ context.Context, lo, hi int) error {
				if lo >= hi {
					t.Errorf("n=%d workers=%d: empty chunk [%d,%d)", n, workers, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, h)
				}
			}
		}
	}
}

func TestForEachRangeZeroItems(t *testing.T) {
	if err := ForEachRange(context.Background(), 0, 4, func(context.Context, int, int) error {
		t.Fatal("fn called for empty range")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachRangeError(t *testing.T) {
	boom := errors.New("range failed")
	err := ForEachRange(context.Background(), 100, 4, func(_ context.Context, lo, _ int) error {
		if lo > 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want the range failure", err)
	}
}
