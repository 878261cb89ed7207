package canopy

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
)

// dropNestedOld is dropNested by brute force: a canopy is dropped when any
// earlier canopy holds every one of its members.
func dropNestedOld(canopies [][]core.EntityID) [][]core.EntityID {
	var out [][]core.EntityID
	for i, c := range canopies {
		nested := false
		for _, earlier := range canopies[:i] {
			if !slices.ContainsFunc(c, func(e core.EntityID) bool { return !slices.Contains(earlier, e) }) {
				nested = true
				break
			}
		}
		if !nested {
			out = append(out, c)
		}
	}
	return out
}

// TestDropNested holds dropNested to brute force on hand-made edge cases and
// random canopy lists, and on the cold bench corpora checks that it drops
// canopies there while BuildCover still equals the construction that
// finishes every canopy (finishCoverOld).
func TestDropNested(t *testing.T) {
	ids := func(es ...core.EntityID) []core.EntityID { return es }
	for _, tc := range []struct {
		name     string
		canopies [][]core.EntityID
		wantKept []int // indexes into canopies
	}{
		{"equal: the first stays", [][]core.EntityID{ids(1, 2), ids(0, 3), ids(1, 2)}, []int{0, 1}},
		{"inside a later one: stays", [][]core.EntityID{ids(2), ids(1, 2, 3)}, []int{0, 1}},
		{"inside an earlier one: dropped", [][]core.EntityID{ids(1, 2, 3), ids(2), ids(1, 3), ids(0, 3)}, []int{0, 3}},
		{"empty first: stays", [][]core.EntityID{ids(), ids(0)}, []int{0, 1}},
		{"empty later: dropped", [][]core.EntityID{ids(0), ids(), ids(1), ids()}, []int{0, 2}},
		{"the highest entity", [][]core.EntityID{ids(0, 9), ids(9)}, []int{0}},
		{"none", nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want [][]core.EntityID
			for _, i := range tc.wantKept {
				want = append(want, tc.canopies[i])
			}
			if got := dropNestedOld(tc.canopies); !reflect.DeepEqual(got, want) {
				t.Fatalf("oracle: got %v, want %v", got, want)
			}
			got := dropNested(10, tc.canopies)
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("dropNested = %v, want %v", got, want)
			}
		})
	}

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(12)
		canopies := make([][]core.EntityID, rng.Intn(10))
		for i := range canopies {
			if i > 0 && rng.Intn(4) == 0 {
				// A subset of an earlier canopy, or a copy of it.
				from := canopies[rng.Intn(i)]
				for _, e := range from {
					if rng.Intn(3) > 0 {
						canopies[i] = append(canopies[i], e)
					}
				}
				continue
			}
			for e := 0; e < n; e++ {
				if rng.Intn(3) == 0 {
					canopies[i] = append(canopies[i], core.EntityID(e))
				}
			}
		}
		want := dropNestedOld(canopies)
		if got := dropNested(n, canopies); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("trial %d: dropNested(%v) = %v, want %v", trial, canopies, got, want)
		}
	}

	full := DefaultConfig()
	full.FullBoundary = true
	for _, c := range coldCorpora() {
		kept := dropNested(c.d.NumRefs(), c.canopies)
		if len(kept) == len(c.canopies) {
			t.Errorf("%s: no canopy of %d is nested in an earlier one", c.name, len(c.canopies))
		}
		before, _ := repetition(c.d, c.canopies)
		after, _ := repetition(c.d, kept)
		t.Logf("%s: %d of %d canopies kept, %d of %d driving-pair occurrences", c.name, len(kept), len(c.canopies), after, before)
		for _, cfg := range []Config{DefaultConfig(), full} {
			t.Run(fmt.Sprintf("%s/full=%v", c.name, cfg.FullBoundary), func(t *testing.T) {
				if got, want := BuildCover(c.d, cfg).Sets, finishCoverOld(c.d, cfg, c.canopies); !reflect.DeepEqual(got, want) {
					t.Fatalf("BuildCover differs from finishing every canopy: %d vs %d sets", len(got), len(want))
				}
			})
		}
	}
}
