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
