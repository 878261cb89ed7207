// Package mln implements the paper's reference collective matcher: the
// Markov-Logic-Network entity matcher of Singla & Domingos (reference
// [18]), restricted — as in the paper's Appendix B — to the four learned
// rules
//
//	similar(e1,e2,1) ⇒ equals(e1,e2)                                −2.28
//	similar(e1,e2,2) ⇒ equals(e1,e2)                                −3.84
//	similar(e1,e2,3) ⇒ equals(e1,e2)                                +12.75
//	coauthor(e1,c1) ∧ coauthor(e2,c2) ∧ equals(c1,c2) ⇒ equals(e1,e2) +2.46
//
// Following §2.1, the score of a match set S is the total weight of rule
// groundings that *fire* in S, and PE(S) ∝ exp(score(S)). Because every
// rule has at most one Match term in its implicant (Proposition 4), the
// resulting model is supermodular: all pairwise interactions between
// match variables are non-negative. MAP inference is therefore *exact*
// via a single s-t minimum cut (Kolmogorov & Zabih [11], which the paper
// cites for precisely this fact), implemented on internal/maxflow.
//
// The ground model sits on a core.CandidateTable: ids, the pair → id
// search, each neighborhood's scoped ids and the groundings of the
// coauthor rule (core.Supports) are the table's, shared with the engine
// and with any other matcher ground over the same candidates (Ground;
// New builds a table first). This package adds the weights, the level
// column, the interaction skeleton of each prepared neighborhood and the
// verdict memo.
package mln

import (
	"sync"

	"repro/internal/maxflow"
)

// Edge is a non-negative pairwise interaction between variables I and J.
type Edge struct {
	I, J int
	W    float64
}

// SolveMAP maximizes  f(x) = Σᵢ unary[i]·xᵢ + Σₑ w·x_I·x_J  over x ∈ {0,1}ⁿ
// with all edge weights ≥ 0 (supermodular). It returns the maximizing
// assignment. Among multiple optima it returns the one found on the
// source side of the min cut; callers that need the paper's
// "largest most-likely set" tie-break add a small inclusion bonus to each
// unary weight.
//
// The reduction: maximizing f is minimizing E(x) = −f(x); each product
// term −w·xᵢ·xⱼ is rewritten as −(w/2)(xᵢ+xⱼ) + (w/2)[xᵢ(1−xⱼ) + xⱼ(1−xᵢ)],
// leaving unary terms plus non-negative "disagreement" costs, which map
// directly onto cut capacities.
func SolveMAP(unary []float64, edges []Edge) []bool {
	out := make([]bool, len(unary))
	solveMAPInto(unary, edges, out)
	if len(out) == 0 {
		return nil
	}
	return out
}

// mapSolver bundles the flow network and scratch buffers one MAP solve
// needs. Solvers are pooled: SMP/MMP invoke inference once per
// neighborhood evaluation (plus once per conditioned probe), and reusing
// the graph's arc and level arrays across invocations removes the
// dominant per-call allocations of the hot path.
type mapSolver struct {
	g    *maxflow.Graph
	c    []float64
	seen []bool
}

var solverPool = sync.Pool{New: func() any { return &mapSolver{g: maxflow.New(0)} }}

// solveMAPInto is SolveMAP writing the assignment into out
// (len(out) = len(unary)), drawing all working memory from the solver
// pool.
func solveMAPInto(unary []float64, edges []Edge, out []bool) {
	n := len(unary)
	if n == 0 {
		return
	}
	sv := solverPool.Get().(*mapSolver)
	defer solverPool.Put(sv)
	// c[i] = coefficient of x_i in E after the rewrite.
	if cap(sv.c) < n {
		sv.c = make([]float64, n)
	}
	c := sv.c[:n]
	for i, a := range unary {
		c[i] = -a
	}
	for _, e := range edges {
		c[e.I] -= e.W / 2
		c[e.J] -= e.W / 2
	}
	// Vertices: 0..n-1 variables, n = source, n+1 = sink.
	s, t := n, n+1
	g := sv.g
	g.Reset(n + 2)
	for i, ci := range c {
		if ci > 0 {
			g.AddEdge(i, t, ci) // pay ci when x_i = 1 (source side)
		} else if ci < 0 {
			g.AddEdge(s, i, -ci) // pay −ci when x_i = 0 (sink side)
		}
	}
	for _, e := range edges {
		if e.W <= 0 {
			continue
		}
		g.AddUndirected(e.I, e.J, e.W/2)
	}
	g.MaxFlow(s, t)
	if cap(sv.seen) < n+2 {
		sv.seen = make([]bool, n+2)
	}
	side := g.MinCutSourceInto(s, sv.seen[:n+2])
	copy(out, side[:n])
}

// pairMAP is solveMAPInto on two variables joined by one edge, in closed
// form: the float operations Dinic performs on that four-vertex network.
// With c = −u − w/2 (an edge with w ≤ 0 gets no arc but still shifts c),
// there is at most one augmenting path, s→p→q→t or s→q→p→t; Dinic sends
// min(+Inf, source, w/2, sink) along it, and the answer is reachability
// from s at > maxflow.Eps. FuzzPairMAP holds it to solveMAPInto.
func pairMAP(up, uq, w float64) (xp, xq bool) {
	cp, cq := -up-w/2, -uq-w/2
	srcP, snkP := max(-cp, 0), max(cp, 0)
	srcQ, snkQ := max(-cq, 0), max(cq, 0)
	pq, qp := max(w/2, 0), max(w/2, 0) // the undirected edge's residuals
	const eps = maxflow.Eps
	if srcP > eps && pq > eps && snkQ > eps {
		f := min(srcP, pq, snkQ)
		srcP, pq, qp, snkQ = srcP-f, pq-f, qp+f, snkQ-f
	} else if srcQ > eps && qp > eps && snkP > eps {
		f := min(srcQ, qp, snkP)
		srcQ, qp, pq, snkP = srcQ-f, qp-f, pq+f, snkP-f
	}
	return srcP > eps || srcQ > eps && qp > eps, srcQ > eps || srcP > eps && pq > eps
}

// smallScratch is solveSmall's network model and its renumbering.
type smallScratch struct {
	idx   []int32 // variable -> index in the network, -1 when decided in closed form
	unary []float64
	edges []Edge
	x     []bool
}

// solveSmall is solveMAPInto on a model whose variable i has deg[i] edges,
// with a network only for its components of three or more variables. A
// variable of degree 0 is a lone source arc: x = unary > Eps. Two degree-1
// variables joined by one edge are pairMAP. The rest share one network, in
// ascending variable order with the edges in their original order, so every
// arc list and augmentation on a component is the whole-model network's:
// components share only s and t, and after max-flow t is unreachable.
// FuzzSolveSmall holds it to solveMAPInto.
func solveSmall(unary []float64, deg []int32, edges []Edge, out []bool, sc *smallScratch) {
	sc.idx = grow(sc.idx, len(unary))
	for i, d := range deg {
		sc.idx[i] = -1
		if d == 0 {
			out[i] = unary[i] > maxflow.Eps
		}
	}
	rest := false
	for _, e := range edges {
		if deg[e.I] == 1 && deg[e.J] == 1 {
			out[e.I], out[e.J] = pairMAP(unary[e.I], unary[e.J], e.W)
		} else {
			sc.idx[e.I], sc.idx[e.J], rest = 0, 0, true
		}
	}
	if !rest {
		return
	}
	sc.unary = sc.unary[:0]
	for i, k := range sc.idx {
		if k >= 0 {
			sc.idx[i] = int32(len(sc.unary))
			sc.unary = append(sc.unary, unary[i])
		}
	}
	sc.edges = sc.edges[:0]
	for _, e := range edges {
		if k := sc.idx[e.I]; k >= 0 {
			sc.edges = append(sc.edges, Edge{I: int(k), J: int(sc.idx[e.J]), W: e.W})
		}
	}
	sc.x = grow(sc.x, len(sc.unary))
	solveMAPInto(sc.unary, sc.edges, sc.x)
	for i, k := range sc.idx {
		if k >= 0 {
			out[i] = sc.x[k]
		}
	}
}

// ScoreAssignment evaluates f(x) for an assignment (test helper and
// promotion checks).
func ScoreAssignment(unary []float64, edges []Edge, x []bool) float64 {
	total := 0.0
	for i, a := range unary {
		if x[i] {
			total += a
		}
	}
	for _, e := range edges {
		if x[e.I] && x[e.J] {
			total += e.W
		}
	}
	return total
}
