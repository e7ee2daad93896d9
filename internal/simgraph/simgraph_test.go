package simgraph

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"mawilab/internal/graphx"
)

// syntheticSets builds a deterministic family of overlapping traffic sets:
// alarm i holds ids [i*stride, i*stride+size), so consecutive alarms overlap
// by size-stride ids and distant alarms are disjoint — a band similarity
// graph with known weights.
func syntheticSets(n, size, stride int) []Set {
	sets := make([]Set, n)
	for i := range sets {
		s := make(Set, size)
		for j := range s {
			s[j] = i*stride + j
		}
		sets[i] = s
	}
	return sets
}

// naiveBuild is the quadratic reference: every pair's intersection counted
// directly, id by id, and inserted in pair order. Build must match it
// exactly.
func naiveBuild(sets []Set, cfg Config) *graphx.Graph {
	g := graphx.New(len(sets))
	for a := 0; a < len(sets); a++ {
		for b := a + 1; b < len(sets); b++ {
			n := 0
			for _, id := range sets[a] {
				if slices.Contains(sets[b], id) {
					n++
				}
			}
			if n == 0 {
				continue
			}
			var w float64
			switch cfg.Measure {
			case Simpson:
				m := len(sets[a])
				if len(sets[b]) < m {
					m = len(sets[b])
				}
				w = float64(n) / float64(m)
			case Jaccard:
				w = float64(n) / float64(len(sets[a])+len(sets[b])-n)
			case Constant:
				w = 1
			}
			if w >= cfg.MinSimilarity && w > 0 {
				g.AddEdge(a, b, w)
			}
		}
	}
	return g
}

func TestBuildMatchesNaiveReference(t *testing.T) {
	sets := syntheticSets(40, 30, 10)
	for _, m := range []Measure{Simpson, Jaccard, Constant} {
		cfg := Config{Measure: m, MinSimilarity: 0.1, Workers: 4}
		got, err := Build(context.Background(), sets, cfg)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		want := naiveBuild(sets, cfg)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: build diverges from the quadratic reference (%d vs %d edges)",
				m, got.EdgeCount(), want.EdgeCount())
		}
	}
}

// TestBuildDeterminismAcrossWorkers is the package's core guarantee: the
// graph — every edge, every weight, and the float-accumulated total weight —
// is byte-identical at workers 1, 2, 4 and 8.
func TestBuildDeterminismAcrossWorkers(t *testing.T) {
	sets := syntheticSets(60, 40, 7)
	ref, err := Build(context.Background(), sets, Config{Measure: Simpson, MinSimilarity: 0.1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		g, err := Build(context.Background(), sets, Config{Measure: Simpson, MinSimilarity: 0.1, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(g, ref) {
			t.Fatalf("workers=%d: graph differs from workers=1", workers)
		}
		if g.TotalWeight() != ref.TotalWeight() {
			t.Fatalf("workers=%d: total weight %v != %v (float accumulation order leaked)",
				workers, g.TotalWeight(), ref.TotalWeight())
		}
		got, err := g.LouvainContext(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.LouvainContext(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: Louvain assignments differ", workers)
		}
	}
}

// TestBuildMinSimilarityBoundary: an edge whose weight lands exactly on
// MinSimilarity is KEPT ("discards edges below this weight"), for all three
// measures.
func TestBuildMinSimilarityBoundary(t *testing.T) {
	// Two sets of 10 sharing exactly 5 ids: Simpson = 5/10 = 0.5,
	// Jaccard = 5/15 = 1/3, Constant = 1.
	sets := syntheticSets(2, 10, 5)
	cases := []struct {
		measure Measure
		weight  float64
	}{
		{Simpson, 0.5},
		{Jaccard, 1.0 / 3.0},
		{Constant, 1},
	}
	for _, tc := range cases {
		// Exactly at the boundary: kept.
		g, err := Build(context.Background(), sets, Config{Measure: tc.measure, MinSimilarity: tc.weight, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if g.EdgeCount() != 1 || g.Weight(0, 1) != tc.weight {
			t.Errorf("%v: edge at w == MinSimilarity == %v dropped (weight %v)", tc.measure, tc.weight, g.Weight(0, 1))
		}
		// Threshold one ulp above the weight: dropped. (Constant's weight is
		// 1, the top of MinSimilarity's domain, so it has no such setting.)
		if above := math.Nextafter(tc.weight, 2); above <= 1 {
			g, err = Build(context.Background(), sets, Config{Measure: tc.measure, MinSimilarity: above, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if g.EdgeCount() != 0 {
				t.Errorf("%v: edge below MinSimilarity survived", tc.measure)
			}
		}
	}
}

// TestBuildMinSimilarityZero: the zero threshold keeps every intersecting
// pair but never inserts weight-0 edges.
func TestBuildMinSimilarityZero(t *testing.T) {
	sets := syntheticSets(3, 10, 5) // 0-1 and 1-2 overlap; 0-2 disjoint
	g, err := Build(context.Background(), sets, Config{Measure: Simpson, MinSimilarity: 0, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if g.EdgeCount() != 2 {
		t.Errorf("edges = %d, want 2 (every intersecting pair)", g.EdgeCount())
	}
	if g.Weight(0, 2) != 0 {
		t.Error("disjoint pair acquired an edge")
	}
}

func TestBuildEmptyAndSingle(t *testing.T) {
	for _, sets := range [][]Set{nil, {nil}, {{}, {}}, syntheticSets(1, 5, 1)} {
		g, err := Build(context.Background(), sets, Config{Measure: Simpson, MinSimilarity: 0.1, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if g.N() != len(sets) || g.EdgeCount() != 0 {
			t.Errorf("%d sets: graph n=%d edges=%d", len(sets), g.N(), g.EdgeCount())
		}
	}
}

func TestBuildBadConfig(t *testing.T) {
	sets := syntheticSets(2, 5, 1)
	if _, err := Build(context.Background(), sets, Config{Measure: Measure(99)}); err == nil {
		t.Error("unknown measure accepted")
	}
	if _, err := Build(context.Background(), sets, Config{Measure: Simpson, MinSimilarity: 2}); err == nil {
		t.Error("MinSimilarity > 1 accepted")
	}
	if _, err := Build(context.Background(), sets, Config{Measure: Simpson, MinSimilarity: -0.5}); err == nil {
		t.Error("negative MinSimilarity accepted")
	}
}

func TestBuildCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sets := syntheticSets(20, 20, 5)
	for _, workers := range []int{1, 4} {
		if _, err := Build(ctx, sets, Config{Measure: Simpson, Workers: workers}); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

func TestMeasureString(t *testing.T) {
	if Simpson.String() != "simpson" || Jaccard.String() != "jaccard" || Constant.String() != "constant" {
		t.Error("measure names wrong")
	}
	if Measure(7).String() != "measure(7)" {
		t.Errorf("unknown measure renders %q", Measure(7).String())
	}
}

// TestBuildRejectsMalformedSets: the sets arrive from another package, so a
// set that is not a strictly ascending list of non-negative ids is an error
// at every worker count — never a panic or a silently wrong graph.
func TestBuildRejectsMalformedSets(t *testing.T) {
	cases := []struct {
		name string
		sets []Set
	}{
		{"unsorted", []Set{{1, 2, 3}, {3, 1, 2}}},
		{"duplicated", []Set{{1, 2, 2, 3}, {2, 3}}},
		{"negative", []Set{{-1, 0, 1}, {0, 1}}},
		{"only negative", []Set{{-5}}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			g, err := Build(context.Background(), tc.sets, Config{Measure: Simpson, Workers: workers})
			if err == nil || g != nil {
				t.Errorf("%s, workers=%d: graph=%v err=%v, want an error", tc.name, workers, g, err)
			}
		}
	}
}

// setsFromBytes decodes fuzz input into well-formed sets: a 0xFF byte closes
// the current set, any other byte adds id b%64 to it. Small ids make alarms
// collide often; the sets are sorted and compacted because that is Build's
// input contract (TestBuildRejectsMalformedSets covers the rest).
func setsFromBytes(data []byte) []Set {
	sets := []Set{nil}
	for _, b := range data {
		if b == 0xFF {
			sets = append(sets, nil)
			continue
		}
		last := &sets[len(sets)-1]
		*last = append(*last, int(b%64))
	}
	for i, s := range sets {
		slices.Sort(s)
		sets[i] = slices.Compact(s)
	}
	return sets
}

// FuzzBuild: for arbitrary sets, every measure and a sequential and a
// parallel fan-out, Build equals the quadratic reference — edges, weights
// and the float-accumulated total weight.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0)) // the shaped seeds are in testdata/fuzz/FuzzBuild
	f.Fuzz(func(t *testing.T, data []byte, measure, minSim uint8) {
		sets := setsFromBytes(data)
		cfg := Config{Measure: Measure(measure % 3), MinSimilarity: float64(minSim) / 255}
		want := naiveBuild(sets, cfg)
		for _, workers := range []int{1, 3} {
			cfg.Workers = workers
			got, err := Build(context.Background(), sets, cfg)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d: build diverges from the quadratic reference on %v (%d vs %d edges)",
					workers, sets, got.EdgeCount(), want.EdgeCount())
			}
		}
	})
}
