package graphx

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refGraph is the map-based graph the sorted-adjacency Graph replaced, moved
// here with its level build, local move and aggregation as they stood: hash
// maps for adjacency, bestMove's per-community weights and compactIDs, the
// keys collected and sorted at every point of use. It shares no code with
// the production Graph and exists so TestGraphMatchesMapReference and
// FuzzGraph have an independent oracle for every float bit and every
// assignment.
type refGraph struct {
	n     int
	adj   []map[int]float64
	self  []float64
	total float64
}

func newRefGraph(n int) *refGraph {
	return &refGraph{n: n, adj: make([]map[int]float64, n), self: make([]float64, n)}
}

func (g *refGraph) AddEdge(u, v int, w float64) {
	if w == 0 {
		return
	}
	if u == v {
		g.self[u] += w
		g.total += w
		return
	}
	if g.adj[u] == nil {
		g.adj[u] = make(map[int]float64)
	}
	if g.adj[v] == nil {
		g.adj[v] = make(map[int]float64)
	}
	g.adj[u][v] += w
	g.adj[v][u] += w
	g.total += w
}

func (g *refGraph) Weight(u, v int) float64 {
	if u == v {
		return g.self[u]
	}
	return g.adj[u][v]
}

func (g *refGraph) Degree(u int) float64 {
	d := 2 * g.self[u]
	for _, v := range refSortedNeighbors(g.adj[u]) {
		d += g.adj[u][v]
	}
	return d
}

// refSortedNeighbors returns m's keys in ascending order.
func refSortedNeighbors(m map[int]float64) []int {
	vs := make([]int, 0, len(m))
	for v := range m {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	return vs
}

func (g *refGraph) EdgeCount() int {
	c := 0
	for _, m := range g.adj {
		c += len(m)
	}
	return c / 2
}

func (g *refGraph) Components() []int {
	comp := make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	stack := make([]int, 0, 64)
	for start := 0; start < g.n; start++ {
		if comp[start] != -1 {
			continue
		}
		comp[start] = next
		stack = append(stack[:0], start)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for v := range g.adj[u] {
				if comp[v] == -1 {
					comp[v] = next
					stack = append(stack, v)
				}
			}
		}
		next++
	}
	return comp
}

func (g *refGraph) Modularity(comm []int) float64 {
	m := g.total
	if m == 0 {
		return 0
	}
	in := make(map[int]float64)
	tot := make(map[int]float64)
	for u := 0; u < g.n; u++ {
		tot[comm[u]] += g.Degree(u)
		in[comm[u]] += 2 * g.self[u]
		for _, v := range refSortedNeighbors(g.adj[u]) {
			if comm[u] == comm[v] {
				in[comm[u]] += g.adj[u][v]
			}
		}
	}
	comms := make([]int, 0, len(tot))
	for c := range tot {
		comms = append(comms, c)
	}
	sort.Ints(comms)
	q := 0.0
	for _, c := range comms {
		q += in[c]/(2*m) - (tot[c]/(2*m))*(tot[c]/(2*m))
	}
	return q
}

// Louvain is the reference method under the default options, without the
// production code's context or telemetry.
func (g *refGraph) Louvain() []int {
	assignment := make([]int, g.n)
	for i := range assignment {
		assignment[i] = i
	}
	cur := g
	for {
		lmComm, moved := cur.localMove()
		if !moved {
			break
		}
		comm := refCompactIDs(lmComm)
		for i := range assignment {
			assignment[i] = comm[assignment[i]]
		}
		next := cur.aggregate(comm)
		if next.n == cur.n {
			break
		}
		cur = next
	}
	return refCompactIDs(assignment)
}

// refLevel is the per-level snapshot the reference sorts out of the maps.
type refLevel struct {
	m2   float64
	nbrV [][]int
	nbrW [][]float64
	deg  []float64
}

func newRefLevel(g *refGraph) *refLevel {
	lv := &refLevel{
		m2:   2 * g.total,
		nbrV: make([][]int, g.n),
		nbrW: make([][]float64, g.n),
		deg:  make([]float64, g.n),
	}
	for u := 0; u < g.n; u++ {
		vs := refSortedNeighbors(g.adj[u])
		ws := make([]float64, len(vs))
		d := 2 * g.self[u]
		for i, v := range vs {
			ws[i] = g.adj[u][v]
			d += ws[i]
		}
		lv.nbrV[u], lv.nbrW[u] = vs, ws
		lv.deg[u] = d
	}
	return lv
}

func (lv *refLevel) bestMove(u int, comm []int, tot []float64) (bestC int, delta float64) {
	nw := make(map[int]float64)
	var cands []int
	for i, v := range lv.nbrV[u] {
		c := comm[v]
		if _, ok := nw[c]; !ok {
			cands = append(cands, c)
		}
		nw[c] += lv.nbrW[u][i]
	}
	sort.Ints(cands)
	cu := comm[u]
	deg, m2 := lv.deg[u], lv.m2
	stay := nw[cu] - (tot[cu]-deg)*deg/m2
	bestC = cu
	bestGain := stay
	for _, c := range cands {
		if c == cu {
			continue
		}
		gain := nw[c] - tot[c]*deg/m2
		if gain > bestGain+1e-12 {
			bestGain = gain
			bestC = c
		}
	}
	return bestC, bestGain - stay
}

func (g *refGraph) localMove() (comm []int, moved bool) {
	comm = make([]int, g.n)
	for i := range comm {
		comm[i] = i
	}
	if 2*g.total == 0 {
		return comm, false
	}
	lv := newRefLevel(g)
	sumTot := append([]float64(nil), lv.deg...)
	for pass := 0; pass < DefaultMaxPasses; pass++ {
		passMoved := false
		passDelta := 0.0
		for u := 0; u < g.n; u++ {
			cu := comm[u]
			bestC, delta := lv.bestMove(u, comm, sumTot)
			sumTot[cu] -= lv.deg[u]
			sumTot[bestC] += lv.deg[u]
			passDelta += delta
			if bestC != cu {
				comm[u] = bestC
				passMoved = true
				moved = true
			}
		}
		if !passMoved || passDelta < DefaultMinDeltaQ*g.total {
			break
		}
	}
	return comm, moved
}

func (g *refGraph) aggregate(comm []int) *refGraph {
	nc := 0
	for _, c := range comm {
		if c+1 > nc {
			nc = c + 1
		}
	}
	out := newRefGraph(nc)
	for u := 0; u < g.n; u++ {
		cu := comm[u]
		if g.self[u] > 0 {
			out.AddEdge(cu, cu, g.self[u])
		}
		for _, v := range refSortedNeighbors(g.adj[u]) {
			if v >= u {
				out.AddEdge(cu, comm[v], g.adj[u][v])
			}
		}
	}
	return out
}

func refCompactIDs(comm []int) []int {
	next := 0
	remap := make(map[int]int, len(comm))
	out := make([]int, len(comm))
	for i, c := range comm {
		id, ok := remap[c]
		if !ok {
			id = next
			remap[c] = id
			next++
		}
		out[i] = id
	}
	return out
}

// checkGraphMatchesRef inserts edges into a Graph and a refGraph in slice
// order and requires the two to agree on everything observable: every pair's
// Weight, every Degree, TotalWeight and the Modularity of three assignments
// by their float bits, and EdgeCount, Components and the Louvain assignment
// exactly. Neighbors must also report each node's neighbours ascending.
func checkGraphMatchesRef(t testing.TB, n int, edges []Edge) {
	t.Helper()
	g, ref := New(n), newRefGraph(n)
	g.AddEdges(edges)
	for _, e := range edges {
		ref.AddEdge(e.U, e.V, e.W)
	}
	sameBits := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d, %d edges: %s = %v (%#x), map reference says %v (%#x)",
				n, len(edges), what, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	sameBits("TotalWeight", g.TotalWeight(), ref.total)
	if g.EdgeCount() != ref.EdgeCount() {
		t.Fatalf("n=%d: EdgeCount = %d, map reference says %d", n, g.EdgeCount(), ref.EdgeCount())
	}
	for u := 0; u < n; u++ {
		sameBits("Degree", g.Degree(u), ref.Degree(u))
		for v := 0; v < n; v++ {
			sameBits("Weight", g.Weight(u, v), ref.Weight(u, v))
		}
		last, count := -1, 0
		g.Neighbors(u, func(v int, w float64) {
			if v <= last || v == u {
				t.Fatalf("n=%d: Neighbors(%d) reported %d after %d", n, u, v, last)
			}
			sameBits("Neighbors weight", w, ref.adj[u][v])
			last = v
			count++
		})
		if count != len(ref.adj[u]) {
			t.Fatalf("n=%d: Neighbors(%d) reported %d neighbours, map reference has %d", n, u, count, len(ref.adj[u]))
		}
	}
	if got, want := g.Components(), ref.Components(); !slices.Equal(got, want) {
		t.Fatalf("n=%d: Components = %v, map reference says %v", n, got, want)
	}
	comm, want := assign(t, g), ref.Louvain()
	if !slices.Equal(comm, want) {
		t.Fatalf("n=%d, %d edges: Louvain = %v, map reference says %v", n, len(edges), comm, want)
	}
	singletons, thirds := make([]int, n), make([]int, n)
	for u := range singletons {
		singletons[u], thirds[u] = u, 7*(u%3)-2 // sparse, negative ids are legal input
	}
	for _, a := range [][]int{comm, singletons, thirds} {
		sameBits("Modularity", g.Modularity(a), ref.Modularity(a))
	}
}

// TestGraphMatchesMapReference drives the sorted-adjacency Graph and the
// map-based reference with random multigraphs — parallel edges, self-loops,
// fractional weights — inserted in ascending (the similarity estimator's
// order: appends only), descending (inserts at the front only) and shuffled
// edge order.
func TestGraphMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{0, 1, 2, 17, 200} {
		for round := 0; round < 4; round++ {
			var edges []Edge
			if n > 0 {
				for e := 0; e < n*(1+round*2); e++ {
					u, v := rng.Intn(n), rng.Intn(n)
					if rng.Intn(4) == 0 {
						// A planted group structure so Louvain has levels to
						// aggregate through.
						v = u/5*5 + rng.Intn(5)
						v = min(v, n-1)
					}
					edges = append(edges, Edge{U: u, V: v, W: float64(1+rng.Intn(8)) / float64(1+rng.Intn(6))})
				}
			}
			byPair := func(a, b Edge) int {
				au, av, bu, bv := min(a.U, a.V), max(a.U, a.V), min(b.U, b.V), max(b.U, b.V)
				if au != bu {
					return au - bu
				}
				return av - bv
			}
			asc := slices.Clone(edges)
			slices.SortStableFunc(asc, byPair)
			desc := slices.Clone(asc)
			slices.Reverse(desc)
			for _, order := range [][]Edge{asc, desc, edges} {
				checkGraphMatchesRef(t, n, order)
			}
		}
	}
}

// fuzzEdges decodes arbitrary bytes into a node count and an edge list: one
// byte of n, then 4 bytes per edge — u, v, and a 16-bit weight numerator over
// 256 (zero weights included: both graphs must ignore them).
func fuzzEdges(data []byte) (n int, edges []Edge) {
	if len(data) == 0 {
		return 0, nil
	}
	n = int(data[0])
	if n == 0 {
		return 0, nil
	}
	for data = data[1:]; len(data) >= 4; data = data[4:] {
		edges = append(edges, Edge{
			U: int(data[0]) % n,
			V: int(data[1]) % n,
			W: float64(binary.LittleEndian.Uint16(data[2:])) / 256,
		})
	}
	return n, edges
}

// FuzzGraph is the differential that keeps the sorted-adjacency Graph honest
// now that the map-based one lives only here: arbitrary bytes become an edge
// list, and the Graph built from it must match refGraph bit for bit — the
// comparisons of checkGraphMatchesRef.
func FuzzGraph(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 1})
	f.Add([]byte{3, 0, 1, 0, 1, 1, 2, 128, 0, 0, 1, 0, 1, 2, 2, 0, 2}) // parallel edge, self-loop
	f.Fuzz(func(t *testing.T, data []byte) {
		n, edges := fuzzEdges(data)
		checkGraphMatchesRef(t, n, edges)
	})
}
