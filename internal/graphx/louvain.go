package graphx

import (
	"context"
	"errors"
	"fmt"
	"sort"
)

// Local-move defaults — the only values louvainOptions takes outside tests.
const (
	// DefaultMaxPasses caps the greedy local-move passes per level. With
	// the modularity-delta criterion doing the real stopping, the cap is an
	// escape hatch against the (theoretically possible) floating-point move
	// cycles the delta criterion cannot rule out; hitting it is reported,
	// never silent.
	DefaultMaxPasses = 100
	// DefaultMinDeltaQ is the convergence threshold: a local-move pass
	// whose total modularity gain ΔQ falls below it ends the level even if
	// individual nodes are still shuffling between near-tied communities.
	DefaultMinDeltaQ = 1e-9
)

// ErrMaxPasses reports that local moving was stopped by the DefaultMaxPasses
// escape hatch before the modularity-delta criterion declared convergence.
// LouvainContext discards the half-converged partition rather than return it.
var ErrMaxPasses = errors.New("graphx: Louvain local move hit MaxPasses before converging")

// louvainOptions tunes a Louvain run; tests vary it to force a capped run.
type louvainOptions struct {
	// maxPasses caps local-move passes per level; 0 means DefaultMaxPasses.
	maxPasses int
	// minDeltaQ is the per-pass modularity-gain convergence threshold;
	// 0 means DefaultMinDeltaQ, negative disables the criterion (a level
	// then ends only when a pass moves no node, or at maxPasses).
	minDeltaQ float64
}

// louvainResult carries the assignment plus convergence telemetry.
type louvainResult struct {
	// assignment maps each node to a dense community id (0-based, in order
	// of first appearance).
	assignment []int
	// converged is false when any level's local move was stopped by the
	// maxPasses cap instead of the convergence criterion.
	converged bool
	// levels counts the aggregation levels run, passes the local-move
	// passes summed over them.
	levels, passes int
}

// LouvainContext runs the Louvain modularity-optimization method and returns
// a community id for every node (ids are dense, 0-based, in order of first
// appearance). The implementation is deterministic: nodes are scanned in
// index order and ties in modularity gain keep the current community.
//
// The method alternates two phases until modularity stops improving:
// local moving (each node greedily joins the neighboring community with the
// largest gain) and aggregation (each community collapses into one node,
// with internal weight becoming a self-loop).
//
// The whole method is one sequential sweep, by design: at the graph sizes
// the pipeline builds (a few hundred alarms, tens of communities) fanning
// the local move out costs more than it saves.
//
// Cancellation is checked between local-move passes and aggregation levels.
// A partition that failed to converge within DefaultMaxPasses is reported as
// ErrMaxPasses rather than returned silently half-optimized. The int
// parameter (once a worker count) is ignored: it stays only because
// cmd/mawibench, frozen for this change, compiles against this signature; the
// next benchmark PR drops it.
func (g *Graph) LouvainContext(ctx context.Context, _ int) ([]int, error) {
	res, err := g.louvain(ctx, louvainOptions{})
	if err != nil {
		return nil, err
	}
	if !res.converged {
		return nil, fmt.Errorf("%w (MaxPasses=%d, levels=%d)", ErrMaxPasses, DefaultMaxPasses, res.levels)
	}
	return res.assignment, nil
}

// louvain runs Louvain under explicit options and returns the full result,
// including whether every level converged before its pass cap. The only
// error is the context's.
func (g *Graph) louvain(ctx context.Context, opts louvainOptions) (*louvainResult, error) {
	if opts.maxPasses <= 0 {
		opts.maxPasses = DefaultMaxPasses
	}
	if opts.minDeltaQ == 0 {
		opts.minDeltaQ = DefaultMinDeltaQ
	}
	// assignment maps original nodes to communities of the current level.
	assignment := make([]int, g.n)
	for i := range assignment {
		assignment[i] = i
	}
	res := &louvainResult{converged: true}
	cur := g
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lm, err := cur.localMove(ctx, opts)
		if err != nil {
			return nil, err
		}
		res.levels++
		res.passes += lm.passes
		if lm.capped {
			res.converged = false
		}
		if !lm.moved {
			break
		}
		comm := compactIDs(lm.comm)
		// Fold this level's communities into the cumulative assignment.
		for i := range assignment {
			assignment[i] = comm[assignment[i]]
		}
		next := cur.aggregate(comm)
		if next.n == cur.n {
			break // no aggregation progress
		}
		cur = next
	}
	res.assignment = compactIDs(assignment)
	return res, nil
}

// louvainLevel is the frozen per-level state of local moving: the graph's
// sorted adjacency, weighted degrees and 2m.
type louvainLevel struct {
	m2   float64 // 2m
	nbrV [][]int
	nbrW [][]float64
	deg  []float64
}

// newLouvainLevel reads the level off the graph. The adjacency is used as it
// stands: ascending neighbor id is the one order in which bestMove's
// floating-point sums — and so its near-tied gain comparisons — are the same
// on every run, which the pipeline's byte-identical-output guarantee needs.
func newLouvainLevel(g *Graph) *louvainLevel {
	lv := &louvainLevel{m2: 2 * g.total, nbrV: g.nbrV, nbrW: g.nbrW, deg: make([]float64, g.n)}
	for u := range lv.deg {
		lv.deg[u] = g.Degree(u)
	}
	return lv
}

// moveScratch is the reusable state of bestMove: commW accumulates k_{i,in}
// per community id (zero outside cands — edge weights are positive, so zero
// also means "not a candidate yet"), cands lists the touched ids so they can
// be scanned in sorted order and reset.
type moveScratch struct {
	commW []float64
	cands []int
}

// bestMove computes node u's greedy decision against the live community
// assignment and community totals, without mutating either, and returns the
// chosen community plus the move's modularity gain in raw gain units (ΔQ·m;
// zero when u stays).
func (lv *louvainLevel) bestMove(u int, comm []int, tot []float64, sc *moveScratch) (bestC int, delta float64) {
	// Hoist the hot fields out of the pointers: this body runs once per
	// node per pass and the indirections are measurable.
	cw := sc.commW
	for _, c := range sc.cands {
		cw[c] = 0
	}
	cands := sc.cands[:0]
	nbrV, nbrW := lv.nbrV[u], lv.nbrW[u]
	for i, v := range nbrV {
		c := comm[v]
		if cw[c] == 0 {
			cands = append(cands, c)
		}
		cw[c] += nbrW[i]
	}
	sort.Ints(cands)
	sc.cands = cands
	// Gain of joining community c (up to constants):
	// k_{i,in}(c) − sumTot[c]·k_i/(2m), with u removed from its own
	// community for the comparison.
	cu := comm[u]
	deg, m2 := lv.deg[u], lv.m2
	stay := cw[cu] - (tot[cu]-deg)*deg/m2
	bestC = cu
	bestGain := stay
	for _, c := range cands {
		if c == cu {
			continue
		}
		gain := cw[c] - tot[c]*deg/m2
		// Strict improvement only; candidates ascend, so ties keep the
		// current community, then the smallest id.
		if gain > bestGain+1e-12 {
			bestGain = gain
			bestC = c
		}
	}
	return bestC, bestGain - stay
}

// localMoveResult is one level's local-move outcome.
type localMoveResult struct {
	comm   []int
	moved  bool // any node changed community
	capped bool // maxPasses fired before the convergence criterion
	passes int
}

// localMove sweeps the nodes in index order, each taking its best move
// against the state every earlier decision left behind, and repeats until a
// pass moves no node, the pass's total modularity gain drops below
// opts.minDeltaQ, or opts.maxPasses fires (reported via capped, never
// silent). The context is checked between passes.
func (g *Graph) localMove(ctx context.Context, opts louvainOptions) (localMoveResult, error) {
	n := g.n
	out := localMoveResult{comm: make([]int, n)}
	for i := range out.comm {
		out.comm[i] = i
	}
	if 2*g.total == 0 {
		return out, ctx.Err()
	}
	lv := newLouvainLevel(g)
	comm := out.comm
	sumTot := append([]float64(nil), lv.deg...) // total degree per community
	sc := &moveScratch{commW: make([]float64, n), cands: make([]int, 0, 16)}

	for pass := 0; ; pass++ {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		if pass == opts.maxPasses {
			out.capped = true
			break
		}
		passMoved := false
		passDelta := 0.0
		for u := 0; u < n; u++ {
			cu := comm[u]
			bestC, delta := lv.bestMove(u, comm, sumTot, sc)
			// Remove-and-reinsert even when u stays: the (x−d)+d rounding
			// is part of the state later nodes observe, and the golden
			// modularity fixtures pin it.
			sumTot[cu] -= lv.deg[u]
			sumTot[bestC] += lv.deg[u]
			passDelta += delta
			if bestC != cu {
				comm[u] = bestC
				passMoved = true
				out.moved = true
			}
		}
		out.passes++
		if !passMoved {
			break
		}
		// Modularity-delta criterion: passDelta is in raw gain units
		// (ΔQ·m), so compare against minDeltaQ·m.
		if opts.minDeltaQ > 0 && passDelta < opts.minDeltaQ*g.total {
			break
		}
	}
	return out, nil
}

// aggregate collapses each community of comm (dense ids) into a single
// node. Original nodes are walked in index order, each emitting its
// self-loop first and then its kept (v > u, each undirected edge once)
// neighbors in ascending order — one canonical AddEdge order, so the
// aggregated graph's floating-point weight sums stay bit-reproducible (see
// newLouvainLevel).
func (g *Graph) aggregate(comm []int) *Graph {
	nc := 0
	for _, c := range comm {
		if c+1 > nc {
			nc = c + 1
		}
	}
	out := New(nc)
	for u := 0; u < g.n; u++ {
		cu := comm[u]
		if g.self[u] > 0 {
			out.AddEdge(cu, cu, g.self[u])
		}
		vs, ws := g.nbrV[u], g.nbrW[u]
		for i := sort.SearchInts(vs, u); i < len(vs); i++ {
			out.AddEdge(cu, comm[vs[i]], ws[i])
		}
	}
	return out
}

// compactIDs renumbers community ids densely, in order of first appearance,
// which keeps outputs deterministic across runs. The ids must lie in
// [0, len(comm)), as every level's do: a node starts in its own community
// and only ever joins another node's.
func compactIDs(comm []int) []int {
	next := 0
	dense := make([]int, len(comm)) // new id + 1; 0 marks an id not seen yet
	out := make([]int, len(comm))
	for i, c := range comm {
		if dense[c] == 0 {
			next++
			dense[c] = next
		}
		out[i] = dense[c] - 1
	}
	return out
}

// Members returns the node lists per community id, each in ascending order.
func Members(comm []int) map[int][]int {
	m := make(map[int][]int)
	for i, c := range comm {
		m[c] = append(m[c], i)
	}
	return m
}
