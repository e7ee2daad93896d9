// Package graphx provides the weighted undirected graph and the community
// mining used by the similarity estimator: connected components as the
// baseline, and the Louvain modularity method (Blondel et al. 2008) that
// the paper selects for its speed and its ability to isolate small, locally
// dense groups of alarms inside sparse similarity graphs.
//
// The graph is a sorted adjacency: every node keeps its neighbours as one
// ascending slice. Ascending neighbour id is the canonical order of every
// floating-point sum in the package, so storing the neighbours in that order
// is what makes degrees, modularity and the Louvain assignment bit-identical
// from run to run without sorting anything at the point of use.
package graphx

import (
	"fmt"
	"slices"
	"sort"
)

// Graph is an undirected weighted multigraph over nodes 0..N-1. Parallel
// AddEdge calls between the same pair accumulate weight. Each node's
// neighbours are two parallel slices — ids, strictly ascending, and the
// accumulated weights. Self-loops are kept separately because modularity
// counts them differently from ordinary edges.
type Graph struct {
	n     int
	nbrV  [][]int     // per node: neighbour ids, ascending
	nbrW  [][]float64 // per node: accumulated weight to nbrV's neighbour
	self  []float64
	total float64 // sum of all edge weights (self-loops once)
}

// New returns an empty graph on n nodes.
func New(n int) *Graph {
	if n < 0 {
		panic("graphx: negative node count")
	}
	return &Graph{n: n, nbrV: make([][]int, n), nbrW: make([][]float64, n), self: make([]float64, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// AddEdge adds weight w between u and v (accumulating). Negative weights
// are rejected; zero weights are ignored.
func (g *Graph) AddEdge(u, v int, w float64) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graphx: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	if w < 0 {
		panic("graphx: negative edge weight")
	}
	if w == 0 {
		return
	}
	if u == v {
		g.self[u] += w
		g.total += w
		return
	}
	g.addNeighbor(u, v, w)
	g.addNeighbor(v, u, w)
	g.total += w
}

// addNeighbor accumulates w onto u's entry for v, keeping u's neighbours
// ascending. A v above u's last neighbour — every edge of an (a, b)-sorted
// edge list, which is what the similarity estimator inserts — is an append;
// anything else is a binary search and, for a new neighbour, an insert.
func (g *Graph) addNeighbor(u, v int, w float64) {
	vs := g.nbrV[u]
	if vs == nil {
		// Start at four: append's own 1, 2, 4 costs a sparse graph three
		// allocations per slice before the typical node is full.
		g.nbrV[u], g.nbrW[u] = append(make([]int, 0, 4), v), append(make([]float64, 0, 4), w)
		return
	}
	if vs[len(vs)-1] < v {
		g.nbrV[u] = append(vs, v)
		g.nbrW[u] = append(g.nbrW[u], w)
		return
	}
	i, found := slices.BinarySearch(vs, v)
	if found {
		g.nbrW[u][i] += w
		return
	}
	g.nbrV[u] = slices.Insert(vs, i, v)
	g.nbrW[u] = slices.Insert(g.nbrW[u], i, w)
}

// Edge is one weighted undirected edge, used for bulk insertion.
type Edge struct {
	U, V int
	W    float64
}

// AddEdges inserts edges in slice order. Order matters for bit-exact
// reproducibility: the graph's total weight is a float accumulator, so
// callers that need identical graphs across runs must present an identically
// ordered edge list (the similarity estimator sorts its pairs first).
func (g *Graph) AddEdges(edges []Edge) {
	for _, e := range edges {
		g.AddEdge(e.U, e.V, e.W)
	}
}

// Weight returns the accumulated weight between u and v (self-loop weight
// when u == v).
func (g *Graph) Weight(u, v int) float64 {
	if u == v {
		return g.self[u]
	}
	if i, found := slices.BinarySearch(g.nbrV[u], v); found {
		return g.nbrW[u][i]
	}
	return 0
}

// Degree returns the weighted degree of u; self-loops count twice, per the
// modularity convention. Neighbors are summed in ascending id order — the
// order they are stored in — so the float accumulation is bit-identical from
// run to run even for fractional similarity weights.
func (g *Graph) Degree(u int) float64 {
	d := 2 * g.self[u]
	for _, w := range g.nbrW[u] {
		d += w
	}
	return d
}

// TotalWeight returns the sum of all edge weights, m (self-loops once).
func (g *Graph) TotalWeight() float64 { return g.total }

// Neighbors calls fn for every neighbor of u with the edge weight, in
// ascending neighbor id. Self-loops are not reported.
func (g *Graph) Neighbors(u int, fn func(v int, w float64)) {
	for i, v := range g.nbrV[u] {
		fn(v, g.nbrW[u][i])
	}
}

// EdgeCount returns the number of distinct non-self edges.
func (g *Graph) EdgeCount() int {
	c := 0
	for _, vs := range g.nbrV {
		c += len(vs)
	}
	return c / 2
}

// Components labels each node with its connected-component id (0-based,
// in order of first appearance). Isolated nodes get their own component.
func (g *Graph) Components() []int {
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
			for _, v := range g.nbrV[u] {
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

// Modularity computes Newman's modularity Q of a node→community assignment.
func (g *Graph) Modularity(comm []int) float64 {
	if len(comm) != g.n {
		panic("graphx: assignment length mismatch")
	}
	m := g.total
	if m == 0 {
		return 0
	}
	// Sum of internal weights and of total degrees per community. All
	// float accumulation runs in canonical order — ascending node id,
	// ascending neighbor id, ascending community id — so Q is
	// bit-identical from run to run.
	in := make(map[int]float64)
	tot := make(map[int]float64)
	for u := 0; u < g.n; u++ {
		tot[comm[u]] += g.Degree(u)
		in[comm[u]] += 2 * g.self[u]
		for i, v := range g.nbrV[u] {
			if comm[u] == comm[v] {
				in[comm[u]] += g.nbrW[u][i] // counted from both ends → 2×w total
			}
		}
	}
	comms := make([]int, 0, len(tot))
	for c := range tot {
		comms = append(comms, c)
	}
	sort.Ints(comms)
	q := 0.0
	// Communities with no internal edges still contribute the degree term
	// (in[c] is zero for them).
	for _, c := range comms {
		q += in[c]/(2*m) - float64((tot[c]/(2*m))*(tot[c]/(2*m)))
	}
	return q
}
