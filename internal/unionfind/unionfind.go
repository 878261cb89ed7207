// Package unionfind implements a disjoint-set (union-find) structure with
// union by rank and path compression. It is used throughout the repository
// for transitive closure of match sets and for merging overlapping maximal
// messages (Proposition 3 of the paper).
package unionfind

// DSU is a disjoint-set structure over the integers [0, n).
// The zero value is an empty structure; use New to pre-size it.
type DSU struct {
	parent []int32
	rank   []int8
	count  int // number of disjoint sets
}

// New returns a DSU with n singleton sets {0}, {1}, …, {n-1}.
func New(n int) *DSU {
	d := &DSU{
		parent: make([]int32, n),
		rank:   make([]int8, n),
		count:  n,
	}
	for i := range d.parent {
		d.parent[i] = int32(i)
	}
	return d
}

// Reset re-initializes the structure to n singleton sets, reusing the
// existing backing arrays when large enough. It lets one DSU serve many
// solves in a pooled workspace.
func (d *DSU) Reset(n int) {
	if cap(d.parent) < n {
		d.parent = make([]int32, n)
		d.rank = make([]int8, n)
	}
	d.parent = d.parent[:n]
	d.rank = d.rank[:n]
	for i := range d.parent {
		d.parent[i] = int32(i)
		d.rank[i] = 0
	}
	d.count = n
}

// Len returns the number of elements in the universe.
func (d *DSU) Len() int { return len(d.parent) }

// Count returns the current number of disjoint sets.
func (d *DSU) Count() int { return d.count }

// Grow extends the universe to n elements, adding singletons. It is a
// no-op if the structure already has at least n elements.
func (d *DSU) Grow(n int) {
	for i := len(d.parent); i < n; i++ {
		d.parent = append(d.parent, int32(i))
		d.rank = append(d.rank, 0)
		d.count++
	}
}

// Find returns the representative of x's set, compressing paths as it goes.
func (d *DSU) Find(x int) int {
	root := x
	for int(d.parent[root]) != root {
		root = int(d.parent[root])
	}
	// Path compression.
	for int(d.parent[x]) != root {
		x, d.parent[x] = int(d.parent[x]), int32(root)
	}
	return root
}

// Union merges the sets containing x and y and reports whether a merge
// actually happened (false if they were already in the same set).
func (d *DSU) Union(x, y int) bool {
	rx, ry := d.Find(x), d.Find(y)
	if rx == ry {
		return false
	}
	if d.rank[rx] < d.rank[ry] {
		rx, ry = ry, rx
	}
	d.parent[ry] = int32(rx)
	if d.rank[rx] == d.rank[ry] {
		d.rank[rx]++
	}
	d.count--
	return true
}

// Same reports whether x and y belong to the same set.
func (d *DSU) Same(x, y int) bool { return d.Find(x) == d.Find(y) }

// Sets returns the current partition as a map from representative to the
// sorted-by-insertion members of its set. Intended for tests and small
// structures; O(n).
func (d *DSU) Sets() map[int][]int {
	out := make(map[int][]int)
	for i := range d.parent {
		r := d.Find(i)
		out[r] = append(out[r], i)
	}
	return out
}
