package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Start and End are seconds since the
// recorder was created; Parent is the id of the span that caused this one
// (0 = none) and Op the id shared by every span of one operation.
type span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder records
// nothing, so the measured code path is the same with tracing on and off and
// the only tracing cost is the clock reads and appends themselves.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a finished span and returns its id (0 on a nil recorder).
func (r *recorder) add(name string, start, end time.Time, parent, op int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Name: name, Parent: parent, Op: op,
		Start: start.Sub(r.t0).Seconds(), End: end.Sub(r.t0).Seconds(),
	})
	return id
}

// open reserves an id for a span whose children are recorded before it ends;
// close fills in its interval.
func (r *recorder) open(name string, parent, op int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Name: name, Parent: parent, Op: op})
	return id
}

func (r *recorder) close(id int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].Start = start.Sub(r.t0).Seconds()
	r.spans[id-1].End = end.Sub(r.t0).Seconds()
}

// timed runs f as one span under parent.
func (r *recorder) timed(name string, parent, op int, f func() error) error {
	start := time.Now()
	err := f()
	r.add(name, start, time.Now(), parent, op)
	return err
}

// step is one named call of a replay.
type step struct {
	name string
	f    func() error
}

// run times each step as a span under parent, stopping at the first error.
func (r *recorder) run(parent int, steps []step) error {
	for _, s := range steps {
		if err := r.timed(s.name, parent, parent, s.f); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return nil
}

// layerTimes is what a span file reduces to: per span name, how many spans,
// their summed duration, and their summed self time — duration minus the
// part of the interval their child spans cover.
type layerTimes struct {
	Calls int
	Total float64
	Self  float64
}

func selfTimes(spans []span) map[string]layerTimes {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTimes)
	for _, s := range spans {
		lt := out[s.Name]
		lt.Calls++
		lt.Total += s.End - s.Start
		lt.Self += s.End - s.Start - covered(s, children[s.ID])
		out[s.Name] = lt
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
// Children may overlap (two clients, a server-side span beside a client-side
// one), so intervals are merged before they are summed.
func covered(parent span, kids []span) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	total, edge := 0.0, parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, edge), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}

// write dumps the spans as one JSON array.
func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
