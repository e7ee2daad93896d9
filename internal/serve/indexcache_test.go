package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mawilab/internal/trace"
)

// newCountedCache returns a cache with its own hit and miss counters.
func newCountedCache(max int) (c *indexCache, hits, misses *Counter) {
	hits, misses = new(Counter), new(Counter)
	return newIndexCache(max, hits, misses), hits, misses
}

// TestIndexCacheMissDoesNotBlockHits: while one digest's load is parked, a
// hit on another digest — and a miss on a third — return. Before the per-entry
// Once the load ran under the cache lock and both would have waited for it.
func TestIndexCacheMissDoesNotBlockHits(t *testing.T) {
	c, hits, misses := newCountedCache(4)
	warm := new(trace.FlowTable)
	if _, err := c.get("warm", func() (*trace.FlowTable, error) { return warm, nil }); err != nil {
		t.Fatal(err)
	}

	building, release := make(chan struct{}), make(chan struct{})
	parked := make(chan error, 1)
	go func() {
		_, err := c.get("slow", func() (*trace.FlowTable, error) {
			close(building)
			<-release
			return new(trace.FlowTable), nil
		})
		parked <- err
	}()
	<-building

	done := make(chan *trace.FlowTable, 1)
	go func() {
		got, _ := c.get("warm", func() (*trace.FlowTable, error) {
			t.Error("a hit ran its build")
			return nil, nil
		})
		c.get("other", func() (*trace.FlowTable, error) { return new(trace.FlowTable), nil })
		done <- got
	}()
	select {
	case got := <-done:
		if got != warm {
			t.Error("the hit returned another table than the one cached")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a hit on another digest waited for the parked miss")
	}
	close(release)
	if err := <-parked; err != nil {
		t.Fatal(err)
	}
	if h, m := hits.Value(), misses.Value(); h != 1 || m != 3 {
		t.Errorf("hits=%d misses=%d, want 1 and 3 (warm, slow, other)", h, m)
	}
}

// TestIndexCacheBuildsOnce: racing queries for one digest load it once and
// share the result — one miss, the rest hits — and a failed load is shared by
// those who waited on it but not cached.
func TestIndexCacheBuildsOnce(t *testing.T) {
	c, hits, misses := newCountedCache(2)
	var builds atomic.Int32
	start := make(chan struct{})
	tables := make([]*trace.FlowTable, 8)
	var wg sync.WaitGroup
	for i := range tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			tables[i], _ = c.get("d", func() (*trace.FlowTable, error) {
				builds.Add(1)
				return new(trace.FlowTable), nil
			})
		}()
	}
	close(start)
	wg.Wait()
	for _, ft := range tables {
		if ft == nil || ft != tables[0] {
			t.Fatal("racing queries did not share one table")
		}
	}
	if b, h, m := builds.Load(), hits.Value(), misses.Value(); b != 1 || m != 1 || h != 7 {
		t.Errorf("builds=%d hits=%d misses=%d, want 1, 7, 1", b, h, m)
	}

	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		if _, err := c.get("bad", func() (*trace.FlowTable, error) { return nil, boom }); err != boom {
			t.Fatalf("failed load returned %v", err)
		}
	}
	if m := misses.Value(); m != 3 {
		t.Errorf("misses=%d, want 3: a failed load must be retried, not cached", m)
	}
	if n := c.len(); n != 1 || len(c.order) != 1 {
		t.Errorf("cache holds %d entries (%d in LRU order) after failed loads, want 1", n, len(c.order))
	}
}
