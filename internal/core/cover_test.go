package core

import (
	"slices"
	"testing"

	"repro/internal/graph"
)

func triangleRelation() *graph.Graph {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	b.AddEdge(4, 5)
	b.AddEdge(1, 2) // crosses neighborhoods in the test covers below
	return b.Build()
}

func TestNewCoverNormalizes(t *testing.T) {
	c := NewCover(4, [][]EntityID{{3, 1, 1, 2}})
	if len(c.Sets[0]) != 3 {
		t.Fatalf("set = %v, want deduped", c.Sets[0])
	}
	for i := 1; i < len(c.Sets[0]); i++ {
		if c.Sets[0][i-1] >= c.Sets[0][i] {
			t.Fatal("set not sorted")
		}
	}
}

func TestIsCover(t *testing.T) {
	c := NewCover(4, [][]EntityID{{0, 1}, {2, 3}})
	if !c.IsCover() {
		t.Error("complete cover rejected")
	}
	c2 := NewCover(4, [][]EntityID{{0, 1}, {2}})
	if c2.IsCover() {
		t.Error("incomplete cover accepted")
	}
}

func TestContaining(t *testing.T) {
	c := NewCover(4, [][]EntityID{{0, 1, 2}, {2, 3}})
	if got := c.Containing(2); len(got) != 2 {
		t.Errorf("Containing(2) = %v", got)
	}
	if got := c.Containing(0); len(got) != 1 || got[0] != 0 {
		t.Errorf("Containing(0) = %v", got)
	}
}

func TestIsTotal(t *testing.T) {
	rel := triangleRelation()
	// Total: edge {1,2} inside second neighborhood.
	total := NewCover(6, [][]EntityID{{0, 1}, {1, 2, 3}, {4, 5}})
	if !total.IsTotal(rel) {
		t.Errorf("total cover rejected; uncovered = %v", total.FirstUncovered(rel))
	}
	// Not total: edge {1,2} split.
	partial := NewCover(6, [][]EntityID{{0, 1}, {2, 3}, {4, 5}})
	if partial.IsTotal(rel) {
		t.Error("partial cover accepted as total")
	}
	if got := partial.FirstUncovered(rel); got != [2]EntityID{1, 2} {
		t.Errorf("FirstUncovered = %v, want {1,2}", got)
	}
}

func TestMaxSizeAndStats(t *testing.T) {
	c := NewCover(6, [][]EntityID{{0, 1}, {1, 2, 3}, {4, 5}})
	if c.MaxSize() != 3 {
		t.Errorf("MaxSize = %d", c.MaxSize())
	}
	s := c.ComputeStats()
	if s.Neighborhoods != 3 || s.MaxSize != 3 || s.TotalEntries != 7 {
		t.Errorf("stats = %+v", s)
	}
	if s.String() == "" {
		t.Error("empty stats string")
	}
}

func TestAffectedContainment(t *testing.T) {
	c := NewCover(6, [][]EntityID{{0, 1}, {1, 2, 3}, {4, 5}})
	// Without a relation graph, only containment counts.
	got := c.Affected([]Pair{MakePair(4, 5)}, nil)
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("Affected = %v, want [2]", got)
	}
}

func TestAffectedViaRelation(t *testing.T) {
	rel := triangleRelation()
	c := NewCover(6, [][]EntityID{{0, 1}, {2, 3}, {4, 5}})
	// Match (0,1): entity 1 is relation-adjacent to 2, which lives in
	// neighborhood 1, so both neighborhoods 0 and 1 are affected.
	got := c.Affected([]Pair{MakePair(0, 1)}, rel)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("Affected = %v, want [0 1]", got)
	}
}

func TestAffectedDedupes(t *testing.T) {
	c := NewCover(4, [][]EntityID{{0, 1, 2, 3}})
	got := c.Affected([]Pair{MakePair(0, 1), MakePair(2, 3)}, nil)
	if len(got) != 1 {
		t.Errorf("Affected = %v, want single neighborhood", got)
	}
}

// TestAffectedUnseen: a neighborhood evaluated against a prefix of the
// round's new pairs is re-activated only by a later pair.
func TestAffectedUnseen(t *testing.T) {
	c := NewCover(4, [][]EntityID{{0, 1}, {1, 2}, {2, 3}})
	pairs := []Pair{MakePair(0, 1), MakePair(2, 3)}
	// 0 saw nothing; 1 saw (0,1) but not (2,3); 2 saw both.
	// One scratch serves every round.
	marks := c.newReach()
	for round := 0; round < 2; round++ {
		got := c.affectedUnseen(pairs, nil, []int32{0, 1, 2}, marks)
		if len(got) != 2 || got[0] != 0 || got[1] != 1 {
			t.Errorf("round %d: affectedUnseen = %v, want [0 1]", round, got)
		}
	}
}

// TestReachMarksWrap: a walk marks what it reaches with a mark of its own,
// and the marks cycle every 127 walks; a neighborhood last reached a whole
// cycle ago is still reached again.
func TestReachMarksWrap(t *testing.T) {
	c := NewCover(4, [][]EntityID{{0, 1}, {2, 3}})
	s := c.newReach()
	for walk := 0; walk < 4*127; walk++ {
		pairs, want := []Pair{MakePair(2, 3)}, []int32{1}
		if walk%127 == 0 {
			pairs, want = []Pair{MakePair(0, 1)}, []int32{0}
		}
		if got := c.affectedUnseen(pairs, nil, nil, s); !slices.Equal(got, want) {
			t.Fatalf("walk %d: affectedUnseen(%v) = %v, want %v", walk, pairs, got, want)
		}
	}
}
