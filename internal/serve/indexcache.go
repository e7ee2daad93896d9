package serve

import (
	"slices"
	"sync"

	"mawilab/internal/trace"
)

// indexCache is the per-digest flow-table cache behind the flow-level
// community queries: loading a table costs a file read, a checksum and two
// sorts (a whole pcap decode for an entry without a valid flows.bin), so
// repeated queries against the same digest must not reload it. The cache is a
// small LRU — flow queries concentrate on recently labeled traces. The lock
// is held only to find or insert a digest's entry; the load runs outside it,
// under the entry's own sync.Once, so one digest's miss never stalls a query
// for another, racing queries for one digest still load exactly once, and the
// counters are exact: whoever inserts the entry counts the miss, everyone who
// finds it a hit.
type indexCache struct {
	max    int
	hits   *Counter
	misses *Counter

	mu      sync.Mutex
	entries map[string]*cachedFlows
	order   []string // LRU order, oldest first
}

// cachedFlows is one digest's slot: filled once, by the first query to reach
// it, and read-only from then on.
type cachedFlows struct {
	once  sync.Once
	table *trace.FlowTable
	err   error
}

func newIndexCache(max int, hits, misses *Counter) *indexCache {
	if max <= 0 {
		max = 4
	}
	return &indexCache{
		max:     max,
		hits:    hits,
		misses:  misses,
		entries: make(map[string]*cachedFlows),
	}
}

// get returns the cached flow table for digest, loading and admitting it with
// build on a miss. The returned table is shared and immutable — and owns its
// storage, so an evicted one stays valid for the readers that still hold it.
// A failed build is not cached: the queries that waited on it share its error
// and the next one tries again.
func (c *indexCache) get(digest string, build func() (*trace.FlowTable, error)) (*trace.FlowTable, error) {
	c.mu.Lock()
	e, ok := c.entries[digest]
	if ok {
		c.hits.Inc()
		c.touch(digest)
	} else {
		c.misses.Inc()
		e = new(cachedFlows)
		c.entries[digest] = e
		c.order = append(c.order, digest)
		for len(c.entries) > c.max {
			oldest := c.order[0]
			c.order = c.order[1:]
			delete(c.entries, oldest)
		}
	}
	c.mu.Unlock()

	e.once.Do(func() { e.table, e.err = build() })
	if e.err != nil {
		c.drop(digest, e)
	}
	return e.table, e.err
}

// drop removes digest's entry if it is still e — a failed build's slot, unless
// an eviction and a fresh miss already replaced it.
func (c *indexCache) drop(digest string, e *cachedFlows) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[digest] == e {
		delete(c.entries, digest)
		c.unlist(digest)
	}
}

// touch moves a digest to the back of the LRU order. Caller holds c.mu.
func (c *indexCache) touch(digest string) {
	c.unlist(digest)
	c.order = append(c.order, digest)
}

// unlist takes a digest out of the LRU order. Caller holds c.mu.
func (c *indexCache) unlist(digest string) {
	if i := slices.Index(c.order, digest); i >= 0 {
		c.order = slices.Delete(c.order, i, i+1)
	}
}

// len returns the number of cached flow tables.
func (c *indexCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
