package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// The re-activation walk this package used before the entity-level one —
// every new pair visits its endpoints and their rel neighbors, at its own
// index, however often an entity recurs — kept as the test-only oracle
// for Cover.affectedUnseen and Cover.AffectedEntities.

// affectedUnseenOld is the per-visit Neighbor(·).
func affectedUnseenOld(c *Cover, newMatches []Pair, rel *graph.Graph, seen []int32) []int32 {
	marks := make([]bool, c.Len())
	var out []int32
	visit := func(e EntityID, i int) {
		for _, id := range c.Containing(e) {
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
	slices.Sort(out)
	return out
}

// affectedEntitiesOld is the per-visit entity-level analogue.
func affectedEntitiesOld(c *Cover, entities []EntityID, rel *graph.Graph) []int32 {
	marks := make([]bool, c.Len())
	var out []int32
	visit := func(e EntityID) {
		for _, id := range c.Containing(e) {
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

// randomReach draws a cover over n entities (every entity in at least one
// neighborhood, most in several), a relation graph over them and a round's
// new pairs, whose endpoints recur as they do when one entity matches
// several others in a round.
func randomReach(rng *rand.Rand) (*Cover, *graph.Graph, []Pair) {
	n := 2 + rng.Intn(40)
	sets := make([][]EntityID, 1+rng.Intn(12))
	for e := 0; e < n; e++ {
		for k := 0; k < 1+rng.Intn(3); k++ {
			i := rng.Intn(len(sets))
			sets[i] = append(sets[i], EntityID(e))
		}
	}
	b := graph.NewBuilder(n)
	for range rng.Intn(3 * n) {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	hot := 1 + rng.Intn(n) // endpoints are drawn from a prefix, so they recur
	pairs := make([]Pair, rng.Intn(3*n))
	for i := range pairs {
		a, c := EntityID(rng.Intn(hot)), EntityID(rng.Intn(n))
		if a == c {
			c = (a + 1) % EntityID(n)
		}
		pairs[i] = MakePair(a, c)
	}
	return NewCover(n, sets), b.Build(), pairs
}

// FuzzAffectedMatchesOld holds the entity-level walk to the per-visit one
// over random covers, relation graphs (and none) and seen vectors —
// including none, every neighborhood at zero and every one past the
// round's last pair — reusing one scratch throughout, as a driver does.
func FuzzAffectedMatchesOld(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42, 99, 1234} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 8; trial++ {
			c, g, pairs := randomReach(rng)
			s := c.newReach()
			s.mark = uint8(rng.Intn(256)) // anywhere in the cycle, so walks cross the wrap
			seens := [][]int32{nil, make([]int32, c.Len())}
			for range 3 {
				seen := make([]int32, c.Len())
				for id := range seen {
					seen[id] = int32(rng.Intn(len(pairs) + 2))
				}
				seens = append(seens, seen)
			}
			entities := make([]EntityID, rng.Intn(c.NumEntities+1))
			for i := range entities {
				entities[i] = EntityID(rng.Intn(c.NumEntities))
			}
			for _, rel := range []*graph.Graph{nil, g} {
				for _, seen := range seens {
					got, want := c.affectedUnseen(pairs, rel, seen, s), affectedUnseenOld(c, pairs, rel, seen)
					if !slices.Equal(got, want) {
						t.Fatalf("seed %d trial %d (rel %v, seen %v): affectedUnseen = %v, the per-visit walk %v",
							seed, trial, rel != nil, seen, got, want)
					}
				}
				if got, want := c.AffectedEntities(entities, rel), affectedEntitiesOld(c, entities, rel); !slices.Equal(got, want) {
					t.Fatalf("seed %d trial %d (rel %v): AffectedEntities(%v) = %v, the per-visit walk %v",
						seed, trial, rel != nil, entities, got, want)
				}
			}
		}
	})
}
