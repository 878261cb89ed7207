package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/flat"
	"repro/internal/graph"
)

// Cover is a set of neighborhoods whose union is the entity set (§4).
// Neighborhood i is the slice Sets[i]; entities may appear in several
// neighborhoods (overlap is what lets simple messages propagate).
//
// NewCover lays the cover out flat, sized from counts: the neighborhoods
// are copied into one array of Σ|Ci| entities, and the containment index is
// one CSR over entities (flat.Bucket) holding Σ|Ci| neighborhood ids.
type Cover struct {
	Sets        [][]EntityID
	NumEntities int

	// The containment index: the ids of the neighborhoods containing entity
	// e, ascending, are in[off[e]:off[e+1]].
	off, in []int32
}

// NewCover wraps neighborhood sets over an entity universe of size n and
// builds the containment index. Each neighborhood is copied, sorted and
// deduped; blocking hands over sets already sorted, which are not sorted
// again.
func NewCover(n int, sets [][]EntityID) *Cover {
	c := &Cover{Sets: make([][]EntityID, len(sets)), NumEntities: n}
	entries := 0
	for _, s := range sets {
		entries += len(s)
	}
	all := make([]EntityID, entries)
	for i, s := range sets {
		dup := all[:len(s):len(s)]
		all = all[len(s):]
		copy(dup, s)
		if !slices.IsSorted(dup) {
			slices.Sort(dup)
		}
		dup = slices.Compact(dup)
		c.Sets[i] = dup[:len(dup):len(dup)]
	}
	c.off, c.in = flat.Bucket(n, func(yield func(EntityID, int32)) {
		for i, s := range c.Sets {
			for _, e := range s {
				yield(e, int32(i))
			}
		}
	})
	return c
}

// Len returns the number of neighborhoods.
func (c *Cover) Len() int { return len(c.Sets) }

// Containing returns the ids of neighborhoods containing entity e, in
// ascending order.
func (c *Cover) Containing(e EntityID) []int32 { return c.in[c.off[e]:c.off[e+1]] }

// IsCover verifies that every entity belongs to at least one neighborhood.
func (c *Cover) IsCover() bool {
	for e := 0; e < c.NumEntities; e++ {
		if c.off[e] == c.off[e+1] {
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
	cu, cv := c.Containing(u), c.Containing(v)
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
	return c.affectedUnseen(newMatches, rel, nil, c.newReach())
}

// affectedUnseen is Affected for a neighborhood that may have seen a
// prefix of newMatches already: seen[id] (when non-nil) is the number of
// leading pairs neighborhood id was evaluated against, and only a later
// pair re-activates it. The pairs are walked last to first, so each
// entity they touch is visited once, at the last pair touching it — the
// one that re-activates the most. s is the walk's scratch: a caller with
// many rounds keeps it.
func (c *Cover) affectedUnseen(newMatches []Pair, rel *graph.Graph, seen []int32, s *reach) []int32 {
	s.begin()
	var out []int32
	for i := len(newMatches) - 1; i >= 0; i-- {
		p := newMatches[i]
		out = c.reachFrom(p.A, i, rel, seen, s, out)
		out = c.reachFrom(p.B, i, rel, seen, s, out)
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
	s := c.newReach()
	s.begin()
	var out []int32
	for _, e := range entities {
		out = c.reachFrom(e, 0, rel, nil, s, out)
	}
	slices.Sort(out)
	return out
}

// reach is the scratch of Neighbor(·) walks: per neighborhood and per
// entity, the mark of the last walk that reached it. A walk takes two
// fresh marks — an entity at the first is visited, at the second expanded
// too — so nothing is cleared between walks, except all of it once the
// marks wrap.
type reach struct {
	hoods []uint8 // mark: in the walk's result
	ents  []uint8 // mark-1: visited; mark: expanded
	mark  uint8
}

// newReach returns the scratch for walks over c.
func (c *Cover) newReach() *reach {
	return &reach{hoods: make([]uint8, c.Len()), ents: make([]uint8, c.NumEntities)}
}

// begin starts a walk.
func (s *reach) begin() {
	if s.mark >= math.MaxUint8-1 {
		clear(s.hoods)
		clear(s.ents)
		s.mark = 0
	}
	s.mark += 2
}

// reachFrom adds to out, at new-pair index i, the neighborhoods
// containing e or an entity adjacent to e in rel (when non-nil) that the
// walk has not reached, and that seen (when non-nil) does not exclude:
// neighborhood id is reached only when i >= seen[id]. Each entity is
// expanded and visited once per walk; a walk that goes by descending i
// so visits it at the last index touching it.
func (c *Cover) reachFrom(e EntityID, i int, rel *graph.Graph, seen []int32, s *reach, out []int32) []int32 {
	if s.ents[e] == s.mark {
		return out
	}
	out = c.visit(e, i, seen, s, out)
	s.ents[e] = s.mark
	if rel != nil {
		for _, u := range rel.Neighbors(e) {
			out = c.visit(u, i, seen, s, out)
		}
	}
	return out
}

// visit is reachFrom for e alone, without its rel neighbors.
func (c *Cover) visit(e EntityID, i int, seen []int32, s *reach, out []int32) []int32 {
	if s.ents[e] >= s.mark-1 {
		return out // visited already, at an index no lower than i
	}
	s.ents[e] = s.mark - 1
	for _, id := range c.Containing(e) {
		if s.hoods[id] != s.mark && (seen == nil || i >= int(seen[id])) {
			s.hoods[id] = s.mark
			out = append(out, id)
		}
	}
	return out
}
