package core

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// Cover is a set of neighborhoods whose union is the entity set (§4).
// Neighborhood i is the slice Sets[i]; entities may appear in several
// neighborhoods (overlap is what lets simple messages propagate).
type Cover struct {
	Sets        [][]EntityID
	NumEntities int

	// containing[e] = ids of neighborhoods containing entity e, built by
	// Index().
	containing [][]int32
}

// NewCover wraps neighborhood sets over an entity universe of size n and
// builds the containment index. Each neighborhood is copied, sorted and
// deduped; blocking hands over sets already sorted, which are not sorted
// again.
func NewCover(n int, sets [][]EntityID) *Cover {
	c := &Cover{Sets: make([][]EntityID, len(sets)), NumEntities: n}
	for i, s := range sets {
		dup := make([]EntityID, len(s))
		copy(dup, s)
		if !slices.IsSorted(dup) {
			slices.Sort(dup)
		}
		c.Sets[i] = slices.Compact(dup)
	}
	c.buildIndex()
	return c
}

func (c *Cover) buildIndex() {
	c.containing = make([][]int32, c.NumEntities)
	for i, s := range c.Sets {
		for _, e := range s {
			c.containing[e] = append(c.containing[e], int32(i))
		}
	}
}

// Len returns the number of neighborhoods.
func (c *Cover) Len() int { return len(c.Sets) }

// Containing returns the ids of neighborhoods containing entity e.
func (c *Cover) Containing(e EntityID) []int32 { return c.containing[e] }

// IsCover verifies that every entity belongs to at least one neighborhood.
func (c *Cover) IsCover() bool {
	for e := 0; e < c.NumEntities; e++ {
		if len(c.containing[e]) == 0 {
			return false
		}
	}
	return true
}

// IsTotal verifies Definition 7 against a relation given as an undirected
// graph: every relation edge must be fully contained in at least one
// neighborhood.
func (c *Cover) IsTotal(rel *graph.Graph) bool {
	return c.FirstUncovered(rel) == [2]EntityID{-1, -1}
}

// FirstUncovered returns one relation edge not contained in any single
// neighborhood, or {-1, -1} if the cover is total w.r.t. rel.
func (c *Cover) FirstUncovered(rel *graph.Graph) [2]EntityID {
	for u := int32(0); u < int32(rel.N()); u++ {
		for _, v := range rel.Neighbors(u) {
			if v < u {
				continue
			}
			if !c.shareNeighborhood(u, v) {
				return [2]EntityID{u, v}
			}
		}
	}
	return [2]EntityID{-1, -1}
}

func (c *Cover) shareNeighborhood(u, v EntityID) bool {
	cu, cv := c.containing[u], c.containing[v]
	i, j := 0, 0
	for i < len(cu) && j < len(cv) {
		switch {
		case cu[i] == cv[j]:
			return true
		case cu[i] < cv[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// MaxSize returns the size k of the largest neighborhood (the k of
// Theorems 3 and 5).
func (c *Cover) MaxSize() int {
	k := 0
	for _, s := range c.Sets {
		if len(s) > k {
			k = len(s)
		}
	}
	return k
}

// Stats summarizes a cover.
type CoverStats struct {
	Neighborhoods int
	MaxSize       int
	MeanSize      float64
	TotalEntries  int // Σ|Ci| (with multiplicity)
}

// ComputeStats gathers cover statistics.
func (c *Cover) ComputeStats() CoverStats {
	s := CoverStats{Neighborhoods: len(c.Sets)}
	for _, set := range c.Sets {
		s.TotalEntries += len(set)
		if len(set) > s.MaxSize {
			s.MaxSize = len(set)
		}
	}
	if len(c.Sets) > 0 {
		s.MeanSize = float64(s.TotalEntries) / float64(len(c.Sets))
	}
	return s
}

func (s CoverStats) String() string {
	return fmt.Sprintf("neighborhoods=%d maxSize=%d meanSize=%.1f entries=%d",
		s.Neighborhoods, s.MaxSize, s.MeanSize, s.TotalEntries)
}

// Affected computes Neighbor(·) of Algorithms 1 and 3: the ids of
// neighborhoods whose runs may be affected by the given new matches. A
// neighborhood is affected when it contains an endpoint of a new match or
// an entity adjacent (in rel, typically the Coauthor graph) to an
// endpoint — those are the neighborhoods whose effective evidence
// changed. rel may be nil, in which case only containment applies.
//
// This over-approximates "input changed", which preserves convergence,
// soundness and consistency (re-running an unaffected neighborhood is a
// no-op for an idempotent matcher).
func (c *Cover) Affected(newMatches []Pair, rel *graph.Graph) []int32 {
	return c.affectedUnseen(newMatches, rel, nil, make([]bool, c.Len()))
}

// affectedUnseen is Affected for a neighborhood that may have seen a
// prefix of newMatches already: seen[id] (when non-nil) is the number of
// leading pairs neighborhood id was evaluated against, and only a later
// pair re-activates it. marks is scratch, one entry per neighborhood, all
// false on entry and again on return — a caller with many rounds keeps it.
func (c *Cover) affectedUnseen(newMatches []Pair, rel *graph.Graph, seen []int32, marks []bool) []int32 {
	var out []int32
	visit := func(e EntityID, i int) {
		for _, id := range c.containing[e] {
			if !marks[id] && (seen == nil || i >= int(seen[id])) {
				marks[id] = true
				out = append(out, id)
			}
		}
	}
	for i, p := range newMatches {
		visit(p.A, i)
		visit(p.B, i)
		if rel != nil {
			for _, u := range rel.Neighbors(p.A) {
				visit(u, i)
			}
			for _, u := range rel.Neighbors(p.B) {
				visit(u, i)
			}
		}
	}
	for _, id := range out {
		marks[id] = false
	}
	slices.Sort(out)
	return out
}

// AffectedEntities is the entity-level analogue of Affected: the ids of
// neighborhoods containing one of the given entities, or an entity
// adjacent to one in rel. It is what an ingested delta activates — the
// neighborhoods whose scope or boundary evidence a batch of new entities
// can touch. rel may be nil, in which case only containment applies.
func (c *Cover) AffectedEntities(entities []EntityID, rel *graph.Graph) []int32 {
	marks := make([]bool, c.Len())
	var out []int32
	visit := func(e EntityID) {
		for _, id := range c.containing[e] {
			if !marks[id] {
				marks[id] = true
				out = append(out, id)
			}
		}
	}
	for _, e := range entities {
		visit(e)
		if rel != nil {
			for _, u := range rel.Neighbors(e) {
				visit(u)
			}
		}
	}
	slices.Sort(out)
	return out
}
