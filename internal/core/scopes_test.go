package core

import (
	"slices"
	"testing"
)

func TestCoverScopes(t *testing.T) {
	// A nil preparation answers like an empty one.
	var none *CoverScopes[int]
	if none.Covers(&Cover{}) || none.Lookup([]EntityID{1}) != nil {
		t.Error("nil CoverScopes claims a preparation")
	}

	c := &Cover{NumEntities: 6, Sets: [][]EntityID{{0, 1, 2}, {}, {3, 4}}}
	built := 0
	cs := BuildCoverScopes(c, func(set []EntityID) *int {
		built++
		n := len(set)
		return &n
	})
	if built != 2 {
		t.Errorf("built %d skeletons, want one per non-empty set", built)
	}
	if !cs.Covers(c) || cs.Covers(&Cover{}) {
		t.Error("Covers does not identify the prepared cover")
	}
	if sk := cs.Lookup(c.Sets[0]); sk == nil || *sk != 3 {
		t.Errorf("Lookup(set 0) = %v", sk)
	}
	if sk := cs.Lookup(c.Sets[2]); sk == nil || *sk != 2 {
		t.Errorf("Lookup(set 2) = %v", sk)
	}
	// Equal members in another slice are another neighborhood; so is the
	// empty slice.
	if cs.Lookup(slices.Clone(c.Sets[0])) != nil || cs.Lookup(nil) != nil {
		t.Error("Lookup answered for a slice outside the cover")
	}
	// A recycled backing array — same address and length, other members —
	// must not resolve to the stale skeleton.
	c.Sets[2][1] = 5
	if cs.Lookup(c.Sets[2]) != nil {
		t.Error("Lookup trusted a key collision")
	}
}
