package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
)

// skipCover is a two-neighborhood cover where neighborhood 0 = {1, 2}
// has no candidates of its own and neighborhood 1 = {0, 1} produces the
// match that re-activates it.
func skipCover() *core.Cover {
	return core.NewCover(3, [][]core.EntityID{{1, 2}, {0, 1}})
}

func has(e []core.EntityID, want ...core.EntityID) bool {
	in := map[core.EntityID]bool{}
	for _, x := range e {
		in[x] = true
	}
	for _, w := range want {
		if !in[w] {
			return false
		}
	}
	return true
}

// closureViolator matches (0,1) from its candidate list, and — outside
// its candidate enumeration, like an interleaved transitive closure —
// derives (1,2) once (0,1) is evidence. It is well-behaved (idempotent,
// monotone) but does NOT have the candidate-closure property, and it
// does not implement ScopePreparer.
var closureViolator = core.MatcherFunc{
	MatchFn: func(entities []core.EntityID, pos, neg core.PairSet) core.PairSet {
		out := core.NewPairSet()
		for p := range pos.All() {
			if has(entities, p.A, p.B) {
				out.Add(p)
			}
		}
		if has(entities, 0, 1) {
			out.Add(core.MakePair(0, 1))
		}
		if has(entities, 1, 2) && pos.Has(core.MakePair(0, 1)) {
			out.Add(core.MakePair(1, 2))
		}
		return out
	},
	CandidatesFn: func(entities []core.EntityID) []core.Pair {
		if has(entities, 0, 1) {
			return []core.Pair{core.MakePair(0, 1)}
		}
		return nil
	},
}

// TestSkipRequiresScopePreparer: a re-activated neighborhood with zero
// undecided candidates must still be evaluated when the matcher has not
// opted into the candidate-closure contract via ScopePreparer —
// otherwise derivations outside Candidates would be silently lost.
func TestSkipRequiresScopePreparer(t *testing.T) {
	for _, par := range []int{1, 4} {
		res, err := core.SMP(context.Background(),
			core.Config{Cover: skipCover(), Matcher: closureViolator, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Matches.Has(core.MakePair(1, 2)) {
			t.Errorf("parallelism %d: non-candidate derivation (1,2) lost: %v (skips=%d)",
				par, res.Matches.Sorted(), res.Stats.Skips)
		}
		if res.Stats.Skips != 0 {
			t.Errorf("parallelism %d: %d skips for a non-ScopePreparer matcher, want 0",
				par, res.Stats.Skips)
		}
	}
}

// preparingMatcher wraps closure-respecting behavior in ScopePreparer:
// its whole output is its candidate (0,1), so skipping its undecided-free
// re-activations is sound.
type preparingMatcher struct {
	core.MatcherFunc
}

func (p *preparingMatcher) PrepareCover(c *core.Cover) {}

// skippingMatcher is closureViolator without the out-of-candidates
// derivation, as a ScopePreparer: over skipCover, SMP skips neighborhood
// 0's re-activation in round 2.
func skippingMatcher() *preparingMatcher {
	m := &preparingMatcher{}
	m.MatchFn = func(entities []core.EntityID, pos, neg core.PairSet) core.PairSet {
		out := core.NewPairSet()
		for p := range pos.All() {
			if has(entities, p.A, p.B) {
				out.Add(p)
			}
		}
		if has(entities, 0, 1) {
			out.Add(core.MakePair(0, 1))
		}
		return out
	}
	m.CandidatesFn = closureViolator.CandidatesFn
	return m
}

// TestSkipCountsForScopePreparer: the same re-activation pattern with a
// candidate-closed ScopePreparer matcher is discharged as a skip, with
// the output unchanged.
func TestSkipCountsForScopePreparer(t *testing.T) {
	res, err := core.SMP(context.Background(), core.Config{Cover: skipCover(), Matcher: skippingMatcher()})
	if err != nil {
		t.Fatal(err)
	}
	want := core.NewPairSet(core.MakePair(0, 1))
	if !res.Matches.Equal(want) {
		t.Errorf("matches = %v, want %v", res.Matches.Sorted(), want.Sorted())
	}
	if res.Stats.Skips == 0 {
		t.Error("expected the candidate-free re-activation to be skipped")
	}
}
