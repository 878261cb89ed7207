package rules_test

import (
	"context"
	"testing"

	"repro/internal/core"
)

// benchSMP times the rounds of one cold SMP run — core.SMP alone, on a
// matcher ground outside the timer, so the first-use grounding and
// PrepareCover are inside it as they are inside a pipeline's rounds.
// Compare runs at -cpu 1.
func benchSMP(b *testing.B, c corpus, p program) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, _ := p.ground(b, c.d, c.cands)
		cfg := core.Config{Cover: c.cover, Matcher: m, Relation: c.d.Coauthor()}
		b.StartTimer()
		if _, err := core.SMP(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRulesSMPPeople is the people-cold workload's matcher share:
// people.rules over the 0.7-scale people corpus.
func BenchmarkRulesSMPPeople(b *testing.B) {
	ps := programs(b)
	benchSMP(b, newCorpus(b, "people", 0.7, 42), ps[len(ps)-1])
}

// BenchmarkRulesSMPHEPTH is hepth-schemes' SMP × rules run: the paper's
// program over the 0.5-scale HEPTH corpus.
func BenchmarkRulesSMPHEPTH(b *testing.B) {
	benchSMP(b, newCorpus(b, "hepth", 0.5, 42), programs(b)[0])
}

// TestRulesMatchAllocs bounds the allocations of one Match call on a
// prepared neighborhood by a constant: the returned set and pool
// variance, whatever the size of the evidence. The evaluator before this
// one cloned pos on every call (and, for seeded programs, unioned the
// seeds into it), so its count grew with |pos|.
func TestRulesMatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	c := newCorpus(t, "people", 0.3, 42)
	ps := programs(t)
	m, _ := ps[len(ps)-1].ground(t, c.d, c.cands)
	m.PrepareCover(c.cover)
	entities := c.cover.Sets[0]
	for _, set := range c.cover.Sets {
		if len(set) > len(entities) {
			entities = set
		}
	}
	// Evidence everywhere but in the neighborhood, so the returned set —
	// the one allocation that has to grow — stays the same size.
	inScope := core.NewPairSet(m.Candidates(entities)...)
	small, large := core.NewPairSet(), core.NewPairSet()
	for i, cand := range c.cands {
		if inScope.Has(cand.Pair) {
			continue
		}
		large.Add(cand.Pair)
		if i%50 == 0 {
			small.Add(cand.Pair)
		}
	}
	if large.Len() < 20*max(small.Len(), 1) {
		t.Fatalf("fixture: |large| = %d is not well above |small| = %d", large.Len(), small.Len())
	}
	measure := func(pos core.PairSet) float64 {
		m.Match(entities, pos, nil) // warm the pool
		return testing.AllocsPerRun(50, func() { m.Match(entities, pos, nil) })
	}
	const maxAllocs = 24
	a, b := measure(small), measure(large)
	if a > maxAllocs || b > maxAllocs {
		t.Errorf("prepared Match allocates %.1f times with |pos| = %d and %.1f with |pos| = %d, want <= %d",
			a, small.Len(), b, large.Len(), maxAllocs)
	}
}
