// Package maxflow implements Dinic's maximum-flow algorithm on an
// adjacency-list flow network, together with the minimum s-t cut it
// induces. It is the inference substrate of the MLN matcher: MAP
// inference in a supermodular pairwise model reduces to a single min-cut
// (Kolmogorov & Zabih, ECCV 2002 — reference [11] of the paper).
//
// Capacities are float64. The graph is built once with AddEdge and then
// solved with MaxFlow; MinCutSource reports which side of the cut each
// vertex lies on.
package maxflow

import "math"

// Eps is the tolerance at or below which residual capacity counts as
// exhausted, for max-flow and min-cut alike.
const Eps = 1e-12

// Graph is a flow network over vertices [0, n).
type Graph struct {
	n     int
	head  []int32 // head[v] = first arc index of v, -1 if none
	next  []int32 // next[a] = next arc of the same tail
	to    []int32 // to[a] = head vertex of arc a
	cap_  []float64
	level []int32
	iter  []int32
	stack []int32 // MinCutSource scratch
	queue []int32 // bfs scratch
}

// New returns an empty flow network with n vertices.
func New(n int) *Graph {
	g := &Graph{}
	g.Reset(n)
	return g
}

// Reset re-initializes the graph to n empty vertices, reusing every
// previously grown buffer. It makes one Graph serve many solves — the
// per-invocation pooling the MLN matcher's inference loop relies on — at
// the cost of an O(n) head reset instead of fresh allocations.
func (g *Graph) Reset(n int) {
	g.n = n
	if cap(g.head) < n {
		g.head = make([]int32, n)
	}
	g.head = g.head[:n]
	for i := range g.head {
		g.head[i] = -1
	}
	g.to = g.to[:0]
	g.cap_ = g.cap_[:0]
	g.next = g.next[:0]
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// Arcs returns the number of directed arcs (including residual arcs).
func (g *Graph) Arcs() int { return len(g.to) }

// AddEdge adds a directed edge u→v with capacity c (and the implicit
// residual arc v→u with capacity 0). Zero and negative capacities are
// clamped to 0, which keeps callers' energy constructions simple.
func (g *Graph) AddEdge(u, v int, c float64) {
	if c < 0 {
		c = 0
	}
	g.addArc(u, v, c)
	g.addArc(v, u, 0)
}

// AddUndirected adds an undirected edge: capacity c in both directions.
func (g *Graph) AddUndirected(u, v int, c float64) {
	if c < 0 {
		c = 0
	}
	g.addArc(u, v, c)
	g.addArc(v, u, c)
}

func (g *Graph) addArc(u, v int, c float64) {
	a := int32(len(g.to))
	g.to = append(g.to, int32(v))
	g.cap_ = append(g.cap_, c)
	g.next = append(g.next, g.head[u])
	g.head[u] = a
}

// bfs builds the level graph from s; returns true if t is reachable.
func (g *Graph) bfs(s, t int) bool {
	for i := range g.level {
		g.level[i] = -1
	}
	queue := append(g.queue[:0], int32(s))
	g.level[s] = 0
	for at := 0; at < len(queue); at++ {
		v := queue[at]
		for a := g.head[v]; a != -1; a = g.next[a] {
			if g.cap_[a] > Eps && g.level[g.to[a]] < 0 {
				g.level[g.to[a]] = g.level[v] + 1
				queue = append(queue, g.to[a])
			}
		}
	}
	g.queue = queue
	return g.level[t] >= 0
}

// dfs sends blocking flow along the level graph.
func (g *Graph) dfs(v, t int, f float64) float64 {
	if v == t {
		return f
	}
	for ; g.iter[v] != -1; g.iter[v] = g.next[g.iter[v]] {
		a := g.iter[v]
		u := g.to[a]
		if g.cap_[a] <= Eps || g.level[u] != g.level[v]+1 {
			continue
		}
		d := g.dfs(int(u), t, math.Min(f, g.cap_[a]))
		if d > Eps {
			g.cap_[a] -= d
			g.cap_[a^1] += d
			return d
		}
	}
	return 0
}

// MaxFlow computes the maximum s→t flow. It may be called once per graph
// build (New or Reset); afterwards the capacities hold the residual
// network that MinCutSource inspects.
func (g *Graph) MaxFlow(s, t int) float64 {
	if s == t {
		return 0
	}
	if cap(g.level) < g.n {
		g.level = make([]int32, g.n)
		g.iter = make([]int32, g.n)
	}
	g.level = g.level[:g.n]
	g.iter = g.iter[:g.n]
	var flow float64
	for g.bfs(s, t) {
		copy(g.iter, g.head)
		for {
			f := g.dfs(s, t, math.Inf(1))
			if f <= Eps {
				break
			}
			flow += f
		}
	}
	return flow
}

// MinCutSource returns, after MaxFlow has run, the set of vertices on the
// source side of the minimum cut as a boolean slice indexed by vertex.
func (g *Graph) MinCutSource(s int) []bool {
	return g.MinCutSourceInto(s, make([]bool, g.n))
}

// MinCutSourceInto is MinCutSource writing into a caller-provided buffer
// (len ≥ n, reused across solves); the buffer's first n entries are
// overwritten and returned. The source side is exactly the vertices
// reachable from s over residual capacity > Eps, with no other tie-break.
func (g *Graph) MinCutSourceInto(s int, seen []bool) []bool {
	seen = seen[:g.n]
	for i := range seen {
		seen[i] = false
	}
	stack := append(g.stack[:0], int32(s))
	seen[s] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for a := g.head[v]; a != -1; a = g.next[a] {
			if g.cap_[a] > Eps && !seen[g.to[a]] {
				seen[g.to[a]] = true
				stack = append(stack, g.to[a])
			}
		}
	}
	g.stack = stack
	return seen
}
