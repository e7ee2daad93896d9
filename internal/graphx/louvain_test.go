package graphx

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
)

// assign runs the default Louvain (LouvainContext) and fails the test on
// any error.
func assign(t testing.TB, g *Graph) []int {
	t.Helper()
	comm, err := g.LouvainContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return comm
}

// addClique wires nodes into a unit-weight clique.
func addClique(g *Graph, nodes ...int) {
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			g.AddEdge(nodes[i], nodes[j], 1)
		}
	}
}

// ringOfCliques builds k cliques of size s, neighbors joined by one weak
// ring edge — the classic Louvain fixture whose optimum is one community
// per clique.
func ringOfCliques(k, s int) *Graph {
	g := New(k * s)
	for c := 0; c < k; c++ {
		base := c * s
		nodes := make([]int, s)
		for i := range nodes {
			nodes[i] = base + i
		}
		addClique(g, nodes...)
		g.AddEdge(base+s-1, (base+s)%(k*s), 0.5)
	}
	return g
}

// TestLouvainRingOfCliquesGolden pins the assignment and the exact
// modularity on the ring-of-cliques fixture: every clique is one community
// and Q matches the closed form. With 8 cliques of 5: m = 8·10 + 8·0.5 = 84,
// each community has internal weight 10 (counted twice in the Q sum) and
// total degree 2·10 + 2·0.5.
func TestLouvainRingOfCliquesGolden(t *testing.T) {
	const k, s = 8, 5
	g := ringOfCliques(k, s)
	want := make([]int, k*s)
	for u := range want {
		want[u] = u / s
	}
	comm := assign(t, g)
	if !reflect.DeepEqual(comm, want) {
		t.Fatalf("assignment = %v, want one community per clique", comm)
	}
	m := 84.0
	wantQ := k * (20/(2*m) - (21/(2*m))*(21/(2*m)))
	if q := g.Modularity(comm); math.Abs(q-wantQ) > 1e-12 {
		t.Errorf("Q = %v, want %v", q, wantQ)
	}
}

// TestLouvainBarbellGolden pins the two-community barbell: two 5-cliques
// joined by a single unit bridge. m = 21, each side has internal weight 10
// and total degree 21.
func TestLouvainBarbellGolden(t *testing.T) {
	g := New(10)
	addClique(g, 0, 1, 2, 3, 4)
	addClique(g, 5, 6, 7, 8, 9)
	g.AddEdge(4, 5, 1)
	want := []int{0, 0, 0, 0, 0, 1, 1, 1, 1, 1}
	comm := assign(t, g)
	if !reflect.DeepEqual(comm, want) {
		t.Fatalf("assignment = %v, want the two cliques", comm)
	}
	m := 21.0
	wantQ := 2 * (20/(2*m) - (21/(2*m))*(21/(2*m)))
	if q := g.Modularity(comm); math.Abs(q-wantQ) > 1e-12 {
		t.Errorf("Q = %v, want %v", q, wantQ)
	}
}

// louvainTestGraphs returns the fixture set the determinism test sweeps:
// structured fixtures plus seeded random and planted-partition graphs.
func louvainTestGraphs() map[string]*Graph {
	out := map[string]*Graph{
		"ring-of-cliques": ringOfCliques(8, 5),
		"barbell": func() *Graph {
			g := New(10)
			addClique(g, 0, 1, 2, 3, 4)
			addClique(g, 5, 6, 7, 8, 9)
			g.AddEdge(4, 5, 1)
			return g
		}(),
		"edgeless": New(6),
	}
	rng := rand.New(rand.NewSource(99))
	r := New(300)
	for e := 0; e < 1500; e++ {
		r.AddEdge(rng.Intn(300), rng.Intn(300), rng.Float64()+0.05)
	}
	out["random"] = r
	p := New(120)
	for i := 0; i < 120; i++ {
		for j := i + 1; j < 120; j++ {
			prob := 0.02
			if i/20 == j/20 {
				prob = 0.5
			}
			if rng.Float64() < prob {
				p.AddEdge(i, j, 1)
			}
		}
	}
	out["planted"] = p
	return out
}

// TestLouvainWithTelemetry: a converged run reports Converged with sane
// level/pass counts, and repeats them exactly.
func TestLouvainWithTelemetry(t *testing.T) {
	g := louvainTestGraphs()["planted"]
	ref, err := g.louvain(context.Background(), louvainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.converged || ref.levels < 1 || ref.passes < ref.levels {
		t.Fatalf("telemetry = %+v", ref)
	}
	again, err := g.louvain(context.Background(), louvainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, ref) {
		t.Fatalf("rerun telemetry %+v diverges from %+v", again, ref)
	}
}

// TestLouvainMaxPassesCap: a one-pass cap on a graph that needs several
// passes must be reported, never silently swallowed; the default cap with
// the modularity-delta criterion converges and matches LouvainContext.
func TestLouvainMaxPassesCap(t *testing.T) {
	g := louvainTestGraphs()["planted"]
	res, err := g.louvain(context.Background(), louvainOptions{maxPasses: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.converged {
		t.Fatal("maxPasses=1 on the planted partition must report a capped run")
	}
	res, err = g.louvain(context.Background(), louvainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.converged {
		t.Fatal("default options must converge")
	}
	if !reflect.DeepEqual(res.assignment, assign(t, g)) {
		t.Fatal("the default assignment diverges from LouvainContext's")
	}
}

// countdownCtx reports cancellation after its Err budget is spent — a
// deterministic way to cancel in the middle of a local-move pass, where the
// sweep polls Err between passes and levels.
type countdownCtx struct {
	context.Context
	n int32
}

func (c *countdownCtx) Err() error {
	if atomic.AddInt32(&c.n, -1) < 0 {
		return context.Canceled
	}
	return c.Context.Err()
}

// TestLouvainCancellation: a cancelled context aborts the run — both up
// front and mid-pass.
func TestLouvainCancellation(t *testing.T) {
	g := louvainTestGraphs()["random"]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.LouvainContext(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v, want context.Canceled", err)
	}
	// Mid-run: let a few Err polls through, then cancel. Every poll is on the
	// calling goroutine, so the cut lands deterministically at a local-move
	// pass boundary inside the first level.
	mid := &countdownCtx{Context: context.Background(), n: 3}
	if _, err := g.LouvainContext(mid, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-pass err = %v, want context.Canceled", err)
	}
}
