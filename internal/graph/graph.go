// Package graph provides a compact undirected adjacency structure over
// dense int32 entity ids. It backs the Coauthor relation, boundary
// expansion of covers (§4 of the paper), and the affected-neighborhood
// index used by the message-passing schedulers (§5).
package graph

import "slices"

// Graph is an immutable undirected graph over vertices [0, n) stored in
// CSR (compressed sparse row) form. Build one with a Builder.
type Graph struct {
	offsets []int32
	adj     []int32
}

// Builder accumulates undirected edges and produces a Graph.
type Builder struct {
	n     int
	edges [][2]int32
}

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int) *Builder { return &Builder{n: n} }

// AddEdge records the undirected edge {u, v}. Self-loops and duplicates
// are tolerated and removed at Build time.
func (b *Builder) AddEdge(u, v int32) {
	if u == v {
		return
	}
	b.edges = append(b.edges, [2]int32{u, v})
}

// Build produces the immutable CSR graph, deduplicating parallel edges.
func (b *Builder) Build() *Graph {
	deg := make([]int32, b.n+1)
	for _, e := range b.edges {
		deg[e[0]+1]++
		deg[e[1]+1]++
	}
	for i := 1; i <= b.n; i++ {
		deg[i] += deg[i-1]
	}
	adj := make([]int32, len(b.edges)*2)
	fill := make([]int32, b.n)
	for _, e := range b.edges {
		adj[deg[e[0]]+fill[e[0]]] = e[1]
		fill[e[0]]++
		adj[deg[e[1]]+fill[e[1]]] = e[0]
		fill[e[1]]++
	}
	// Sort and dedupe each neighbor list in place, then compact.
	out := adj[:0]
	offsets := make([]int32, b.n+1)
	for v := 0; v < b.n; v++ {
		lo, hi := deg[v], deg[v+1]
		nbrs := adj[lo:hi]
		slices.Sort(nbrs)
		start := len(out)
		for i, u := range nbrs {
			if i > 0 && nbrs[i-1] == u {
				continue
			}
			out = append(out, u)
		}
		offsets[v] = int32(start)
		offsets[v+1] = int32(len(out))
	}
	final := make([]int32, len(out))
	copy(final, out)
	return &Graph{offsets: offsets, adj: final}
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.offsets) - 1 }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int32) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns v's sorted neighbor list. The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) Neighbors(v int32) []int32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether {u, v} is an edge, by binary search.
func (g *Graph) HasEdge(u, v int32) bool {
	nbrs := g.Neighbors(u)
	_, ok := slices.BinarySearch(nbrs, v)
	return ok
}

// Edges returns the number of undirected edges.
func (g *Graph) Edges() int { return len(g.adj) / 2 }

// Components returns the connected-component id of every vertex and the
// number of components. Ids are dense in [0, count).
func (g *Graph) Components() (ids []int32, count int) {
	ids = make([]int32, g.N())
	for i := range ids {
		ids[i] = -1
	}
	var stack []int32
	for v := 0; v < g.N(); v++ {
		if ids[v] >= 0 {
			continue
		}
		ids[v] = int32(count)
		stack = append(stack[:0], int32(v))
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range g.Neighbors(x) {
				if ids[u] < 0 {
					ids[u] = int32(count)
					stack = append(stack, u)
				}
			}
		}
		count++
	}
	return ids, count
}
