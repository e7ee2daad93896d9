// Package simgraph builds the alarm-similarity graph of §2.1.2: given each
// alarm's traffic as a sorted slice of the trace index's exact ids, it
// weights every pair of alarms with intersecting traffic (Simpson / Jaccard /
// Constant) and assembles the weighted graph that community mining runs on.
//
// There is one build path, byte-identical at every worker count:
//
//  1. index (sequential): a counting sort over [0, max id] lays the inverted
//     index id → owning alarms out as one CSR table; alarms are scanned in
//     index order, so every owner list is ascending;
//  2. rows (parallel over contiguous alarm ranges on the bounded pool in
//     internal/parallel): for alarm a, walking the owner lists of its ids
//     counts the ids it shares with every b > a into a scratch array reset
//     through a touched list; the touched b's are sorted, weighed and emitted
//     as row a — a slot indexed by a, no shared writes;
//  3. insert (sequential): the rows concatenated are already in (a, b) order,
//     and edges at or above MinSimilarity are inserted in that order, so the
//     graph's floating-point weight accumulation — and therefore Louvain's
//     modularity comparisons downstream — never depends on the worker count.
package simgraph

import (
	"context"
	"fmt"
	"slices"

	"mawilab/internal/graphx"
	"mawilab/internal/parallel"
)

// Measure selects the edge-weight similarity between two alarms' traffic
// sets. The paper evaluates three and retains Simpson.
type Measure uint8

// The three similarity measures of the paper.
const (
	// Simpson is |E1∩E2| / min(|E1|,|E2|): 1 when one alarm's traffic is
	// contained in the other's.
	Simpson Measure = iota
	// Jaccard is |E1∩E2| / |E1∪E2|.
	Jaccard
	// Constant weights every intersecting pair 1.
	Constant
)

// String names the measure.
func (m Measure) String() string {
	switch m {
	case Simpson:
		return "simpson"
	case Jaccard:
		return "jaccard"
	case Constant:
		return "constant"
	default:
		return fmt.Sprintf("measure(%d)", uint8(m))
	}
}

// Set is one alarm's traffic: the ids the trace index gives its traffic
// units (packet, flow or conversation ids, depending on granularity),
// strictly ascending and non-negative. Ids are dense — Build allocates one
// table entry per id up to the largest.
type Set = []int

// Config parameterizes the similarity-graph build.
type Config struct {
	// Measure of edge weight; the paper retains Simpson.
	Measure Measure
	// MinSimilarity discards edges below this weight, discriminating alarms
	// with an irrelevant amount of traffic in common. An edge is kept when
	// its weight is >= MinSimilarity and > 0; zero keeps every intersecting
	// pair.
	MinSimilarity float64
	// Workers bounds the row fan-out; <= 0 uses every core. The graph is
	// identical at every setting.
	Workers int
}

// Build constructs the similarity graph over len(sets) alarms: node i is
// alarm i, and intersecting alarms are connected with the configured
// similarity weight. The result is byte-identical at every Config.Workers.
func Build(ctx context.Context, sets []Set, cfg Config) (*graphx.Graph, error) {
	if cfg.MinSimilarity < 0 || cfg.MinSimilarity > 1 {
		return nil, fmt.Errorf("simgraph: MinSimilarity %f out of [0,1]", cfg.MinSimilarity)
	}
	switch cfg.Measure {
	case Simpson, Jaccard, Constant:
	default:
		return nil, fmt.Errorf("simgraph: unknown measure %d", cfg.Measure)
	}
	// The sets come from another package: everything below relies on each
	// being strictly ascending (distinct ids, ascending owner lists) and
	// non-negative (ids index the offset table).
	maxID := -1
	for a, s := range sets {
		prev := -1
		for _, id := range s {
			if id <= prev {
				return nil, fmt.Errorf("simgraph: set %d is not a strictly ascending list of non-negative ids (%d after %d)", a, id, prev)
			}
			prev = id
		}
		maxID = max(maxID, prev)
	}

	// Inverted index as one CSR table: owners[off[id]:off[id+1]] are the
	// alarms holding id, ascending. Offsets are int — at packet granularity
	// the total can outgrow int32 long before the alarm count does.
	off := make([]int, maxID+2)
	for _, s := range sets {
		for _, id := range s {
			off[id+1]++
		}
	}
	for id := 0; id <= maxID; id++ {
		off[id+1] += off[id]
	}
	owners := make([]int32, off[maxID+1])
	next := slices.Clone(off[:maxID+1])
	for a, s := range sets {
		for _, id := range s {
			owners[next[id]] = int32(a)
			next[id]++
		}
	}

	rows := make([][]graphx.Edge, len(sets))
	err := parallel.ForEachRange(ctx, len(sets), cfg.Workers, func(ctx context.Context, lo, hi int) error {
		shared := make([]int32, len(sets)) // shared[b] = |sets[a] ∩ sets[b]|, zero outside touched
		var touched []int
		for a := lo; a < hi; a++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			for _, id := range sets[a] {
				// Owner lists ascend, so the alarms above a are a suffix; a
				// holds id itself, which ends the walk inside the list.
				for j := off[id+1] - 1; int(owners[j]) > a; j-- {
					b := int(owners[j])
					if shared[b] == 0 {
						touched = append(touched, b)
					}
					shared[b]++
				}
			}
			slices.Sort(touched)
			row := make([]graphx.Edge, 0, len(touched))
			for _, b := range touched {
				w := weight(cfg.Measure, int(shared[b]), len(sets[a]), len(sets[b]))
				shared[b] = 0
				if w >= cfg.MinSimilarity && w > 0 {
					row = append(row, graphx.Edge{U: a, V: b, W: w})
				}
			}
			rows[a] = row
			touched = touched[:0]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Sequential insert in (a, b) order: the graph's total weight is a float
	// accumulator, so insertion order must not vary with Workers.
	g := graphx.New(len(sets))
	for _, row := range rows {
		g.AddEdges(row)
	}
	return g, nil
}

// weight is the similarity of two alarms sharing n > 0 of their sa and sb
// traffic units.
func weight(m Measure, n, sa, sb int) float64 {
	switch m {
	case Simpson:
		return float64(n) / float64(min(sa, sb))
	case Jaccard:
		return float64(n) / float64(sa+sb-n)
	default:
		return 1
	}
}
