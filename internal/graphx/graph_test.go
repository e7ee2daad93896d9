package graphx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddEdgeAccumulates(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 0, 2)
	if g.Weight(0, 1) != 3 || g.Weight(1, 0) != 3 {
		t.Errorf("weight = %f/%f, want 3", g.Weight(0, 1), g.Weight(1, 0))
	}
	if g.TotalWeight() != 3 {
		t.Errorf("total = %f, want 3", g.TotalWeight())
	}
	if g.EdgeCount() != 1 {
		t.Errorf("edges = %d, want 1", g.EdgeCount())
	}
}

func TestSelfLoopDegree(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 0, 2)
	g.AddEdge(0, 1, 1)
	if g.Degree(0) != 5 { // 2*self + 1
		t.Errorf("degree = %f, want 5", g.Degree(0))
	}
	if g.Weight(0, 0) != 2 {
		t.Errorf("self weight = %f", g.Weight(0, 0))
	}
}

func TestAddEdgePanics(t *testing.T) {
	g := New(2)
	for _, fn := range []func(){
		func() { g.AddEdge(-1, 0, 1) },
		func() { g.AddEdge(0, 5, 1) },
		func() { g.AddEdge(0, 1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestZeroWeightIgnored(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 0)
	if g.EdgeCount() != 0 {
		t.Error("zero-weight edge should be ignored")
	}
}

func TestComponents(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(3, 4, 1)
	comp := g.Components()
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Errorf("0-1-2 should share a component: %v", comp)
	}
	if comp[3] != comp[4] {
		t.Errorf("3-4 should share a component: %v", comp)
	}
	if comp[0] == comp[3] || comp[0] == comp[5] || comp[3] == comp[5] {
		t.Errorf("distinct groups should have distinct ids: %v", comp)
	}
	// Node 5 is isolated: its own component.
	if len(Members(comp)[comp[5]]) != 1 {
		t.Errorf("isolated node not alone: %v", comp)
	}
}

func TestModularityPartitionedCliques(t *testing.T) {
	// Two disjoint triangles: perfect 2-community split has known Q = 0.5.
	g := New(6)
	tri := func(a, b, c int) {
		g.AddEdge(a, b, 1)
		g.AddEdge(b, c, 1)
		g.AddEdge(a, c, 1)
	}
	tri(0, 1, 2)
	tri(3, 4, 5)
	good := []int{0, 0, 0, 1, 1, 1}
	bad := []int{0, 1, 0, 1, 0, 1}
	qGood := g.Modularity(good)
	qBad := g.Modularity(bad)
	if math.Abs(qGood-0.5) > 1e-12 {
		t.Errorf("Q(good) = %f, want 0.5", qGood)
	}
	if qBad >= qGood {
		t.Errorf("Q(bad)=%f should be below Q(good)=%f", qBad, qGood)
	}
}

func TestModularityEmptyGraph(t *testing.T) {
	g := New(3)
	if q := g.Modularity([]int{0, 1, 2}); q != 0 {
		t.Errorf("empty graph Q = %f, want 0", q)
	}
}

func TestModularityBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := New(n)
		for e := 0; e < n*2; e++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), float64(1+rng.Intn(3)))
		}
		comm := make([]int, n)
		for i := range comm {
			comm[i] = rng.Intn(3)
		}
		q := g.Modularity(comm)
		return q >= -1.0-1e-9 && q <= 1.0+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLouvainTwoCliques(t *testing.T) {
	// Two 4-cliques joined by one weak edge: Louvain must find the cliques.
	g := New(8)
	clique := func(nodes ...int) {
		for i := 0; i < len(nodes); i++ {
			for j := i + 1; j < len(nodes); j++ {
				g.AddEdge(nodes[i], nodes[j], 1)
			}
		}
	}
	clique(0, 1, 2, 3)
	clique(4, 5, 6, 7)
	g.AddEdge(3, 4, 0.1)
	comm := assign(t, g)
	if comm[0] != comm[1] || comm[1] != comm[2] || comm[2] != comm[3] {
		t.Errorf("first clique split: %v", comm)
	}
	if comm[4] != comm[5] || comm[5] != comm[6] || comm[6] != comm[7] {
		t.Errorf("second clique split: %v", comm)
	}
	if comm[0] == comm[4] {
		t.Errorf("cliques merged: %v", comm)
	}
}

func TestLouvainIsolatedNodesStaySingle(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1, 1)
	comm := assign(t, g)
	if comm[0] != comm[1] {
		t.Errorf("connected pair should merge: %v", comm)
	}
	seen := map[int]bool{}
	for _, c := range comm[2:] {
		if seen[c] {
			t.Errorf("isolated nodes share a community: %v", comm)
		}
		seen[c] = true
	}
	if seen[comm[0]] {
		t.Errorf("isolated node joined the pair: %v", comm)
	}
}

func TestLouvainDeterministic(t *testing.T) {
	build := func() *Graph {
		rng := rand.New(rand.NewSource(17))
		g := New(60)
		for e := 0; e < 200; e++ {
			g.AddEdge(rng.Intn(60), rng.Intn(60), rng.Float64()+0.1)
		}
		return g
	}
	a := assign(t, build())
	b := assign(t, build())
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Louvain not deterministic")
		}
	}
}

func TestLouvainImprovesOverSingletons(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	// Planted partition: 4 groups of 15, dense inside, sparse across.
	const groups, per = 4, 15
	n := groups * per
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sameGroup := i/per == j/per
			p := 0.02
			if sameGroup {
				p = 0.5
			}
			if rng.Float64() < p {
				g.AddEdge(i, j, 1)
			}
		}
	}
	comm := assign(t, g)
	singletons := make([]int, n)
	for i := range singletons {
		singletons[i] = i
	}
	qL := g.Modularity(comm)
	qS := g.Modularity(singletons)
	if qL <= qS {
		t.Errorf("Louvain Q=%f not above singleton Q=%f", qL, qS)
	}
	if qL < 0.4 {
		t.Errorf("planted partition Q=%f, want ≥ 0.4", qL)
	}
	// Most nodes should agree with their plurality group community.
	agree := 0
	for grp := 0; grp < groups; grp++ {
		votes := map[int]int{}
		for i := grp * per; i < (grp+1)*per; i++ {
			votes[comm[i]]++
		}
		best := 0
		for _, v := range votes {
			if v > best {
				best = v
			}
		}
		agree += best
	}
	if agree < n*8/10 {
		t.Errorf("only %d/%d nodes in plurality communities", agree, n)
	}
}

func TestLouvainEmptyAndTrivial(t *testing.T) {
	if got := assign(t, New(0)); len(got) != 0 {
		t.Error("empty graph should give empty assignment")
	}
	comm := assign(t, New(3)) // no edges at all
	if comm[0] == comm[1] || comm[1] == comm[2] {
		t.Errorf("edgeless nodes must stay singletons: %v", comm)
	}
}

func TestMembersAndSizes(t *testing.T) {
	comm := []int{0, 1, 0, 2, 1}
	m := Members(comm)
	if len(m[0]) != 2 || m[0][0] != 0 || m[0][1] != 2 {
		t.Errorf("Members[0] = %v", m[0])
	}
	if len(m[1]) != 2 || len(m[2]) != 1 {
		t.Errorf("sizes of communities 1/2 = %d/%d, want 2/1", len(m[1]), len(m[2]))
	}
}

func TestNeighborsIteration(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 2)
	g.AddEdge(0, 2, 3)
	g.AddEdge(0, 0, 1) // self-loop must not be reported
	total := 0.0
	count := 0
	g.Neighbors(0, func(v int, w float64) {
		total += w
		count++
	})
	if count != 2 || total != 5 {
		t.Errorf("neighbors count=%d total=%f", count, total)
	}
}

func TestAddEdgesMatchesSequentialInserts(t *testing.T) {
	edges := []Edge{{0, 1, 0.5}, {1, 2, 0.25}, {0, 1, 0.5}, {3, 3, 1}}
	bulk := New(4)
	bulk.AddEdges(edges)
	loop := New(4)
	for _, e := range edges {
		loop.AddEdge(e.U, e.V, e.W)
	}
	if bulk.Weight(0, 1) != 1 || bulk.Weight(1, 2) != 0.25 || bulk.Weight(3, 3) != 1 {
		t.Errorf("bulk weights wrong: %v %v %v", bulk.Weight(0, 1), bulk.Weight(1, 2), bulk.Weight(3, 3))
	}
	if bulk.TotalWeight() != loop.TotalWeight() || bulk.EdgeCount() != loop.EdgeCount() {
		t.Errorf("bulk insert diverges from AddEdge loop: total %v vs %v", bulk.TotalWeight(), loop.TotalWeight())
	}
}
