package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/testmodel"
)

// TestNegativeEvidenceSuppresses: pairs in Config.Negative never appear
// in any scheme's output, and knocking out a load-bearing pair removes
// its dependents too (anti-monotonicity flowing through the framework).
func TestNegativeEvidenceSuppresses(t *testing.T) {
	m, cover, ids := testmodel.PaperExample()
	base := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}

	// Baseline: (c1,c2) is matched and unlocks (b1,b2) via SMP.
	smp := mustRun(t, core.SMP, base)
	c12 := core.MakePair(ids["c1"], ids["c2"])
	b12 := core.MakePair(ids["b1"], ids["b2"])
	if !smp.Matches.Has(c12) || !smp.Matches.Has(b12) {
		t.Fatalf("baseline lost expected matches: %v", smp.Matches.Sorted())
	}

	// Negate (c1,c2): both it and its dependent (b1,b2) must disappear,
	// in every scheme.
	neg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation(),
		Negative: core.NewPairSet(c12)}
	for _, res := range []*core.Result{mustRun(t, core.NoMP, neg), mustRun(t, core.SMP, neg), mustRun(t, core.Full, neg)} {
		if res.Matches.Has(c12) {
			t.Errorf("%s: negated pair matched", res.Scheme)
		}
		if res.Matches.Has(b12) {
			t.Errorf("%s: dependent of negated pair matched", res.Scheme)
		}
	}
	mmp, err := core.MMP(bg, neg)
	if err != nil {
		t.Fatal(err)
	}
	if mmp.Matches.Has(c12) || mmp.Matches.Has(b12) {
		t.Errorf("MMP ignored negative evidence: %v", mmp.Matches.Sorted())
	}
}

// TestNegativeEvidenceMonotone: growing Negative never grows any
// scheme's output (Definition 3(iii) lifted to the framework level),
// checked on random instances.
func TestNegativeEvidenceMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		m, cover := testmodel.Random(rng)
		base := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
		full := mustRun(t, core.Full, base)
		if full.Matches.Len() == 0 {
			continue
		}
		// Negate a random subset of the full run's matches.
		neg := core.NewPairSet()
		for p := range full.Matches.All() {
			if rng.Intn(2) == 0 {
				neg.Add(p)
			}
		}
		withNeg := base
		withNeg.Negative = neg

		for _, pair := range []struct {
			name     string
			without  core.PairSet
			withNegM core.PairSet
		}{
			{"SMP", mustRun(t, core.SMP, base).Matches, mustRun(t, core.SMP, withNeg).Matches},
			{"NO-MP", mustRun(t, core.NoMP, base).Matches, mustRun(t, core.NoMP, withNeg).Matches},
			{"FULL", full.Matches, mustRun(t, core.Full, withNeg).Matches},
		} {
			if !pair.withNegM.Subset(pair.without) {
				t.Fatalf("trial %d: %s grew under negative evidence", trial, pair.name)
			}
			for p := range neg.All() {
				if pair.withNegM.Has(p) {
					t.Fatalf("trial %d: %s output a negated pair", trial, pair.name)
				}
			}
		}
		mmp, err := core.MMP(bg, withNeg)
		if err != nil {
			t.Fatal(err)
		}
		for p := range neg.All() {
			if mmp.Matches.Has(p) {
				t.Fatalf("trial %d: MMP output a negated pair", trial)
			}
		}
	}
}

// nonMonotoneMatcher violates Definition 3 deliberately: it matches a
// pair only while NO evidence is supplied (evidence makes it withdraw
// matches). Used to demonstrate that the framework's soundness guarantee
// genuinely depends on well-behavedness.
type nonMonotoneMatcher struct {
	pairs []core.Pair
}

func (n nonMonotoneMatcher) Candidates(entities []core.EntityID) []core.Pair {
	in := map[core.EntityID]bool{}
	for _, e := range entities {
		in[e] = true
	}
	var out []core.Pair
	for _, p := range n.pairs {
		if in[p.A] && in[p.B] {
			out = append(out, p)
		}
	}
	return out
}

func (n nonMonotoneMatcher) Match(entities []core.EntityID, pos, neg core.PairSet) core.PairSet {
	out := core.NewPairSet()
	if pos.Len() > 0 {
		return out // spitefully withdraws everything once evidence exists
	}
	for _, p := range n.Candidates(entities) {
		out.Add(p)
	}
	return out
}

// TestNonMonotoneBreaksIdempotence: the wellbehaved checkers catch the
// violation — this documents WHY Theorem 2 needs its hypotheses.
func TestNonMonotoneBreaksIdempotence(t *testing.T) {
	m := nonMonotoneMatcher{pairs: []core.Pair{core.MakePair(0, 1), core.MakePair(2, 3)}}
	entities := []core.EntityID{0, 1, 2, 3}
	if err := core.CheckIdempotence(m, entities, core.NewPairSet(), core.NewPairSet()); err == nil {
		t.Fatal("checker failed to flag a non-idempotent matcher")
	}
	if err := core.CheckMonotonePositive(m, entities,
		core.NewPairSet(), core.NewPairSet(core.MakePair(0, 1)), core.NewPairSet()); err == nil {
		t.Fatal("checker failed to flag a non-monotone matcher")
	}
	// SMP still terminates on it (convergence needs no monotonicity —
	// M+ only grows), but soundness can no longer be promised; here the
	// output visibly differs from the matcher's own full run.
	cover := core.NewCover(4, [][]core.EntityID{{0, 1}, {2, 3}, {0, 1, 2, 3}})
	cfg := core.Config{Cover: cover, Matcher: m}
	smp := mustRun(t, core.SMP, cfg)
	full := mustRun(t, core.Full, cfg)
	if smp.Matches.Equal(full.Matches) {
		t.Skip("order happened to agree; the guarantee is still void")
	}
}
