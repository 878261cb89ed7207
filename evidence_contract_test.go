package cem_test

// The evidence contract of core.Matcher, held against both built-in
// matchers from one table: evidence is read on the matcher's ground
// candidate pairs only. A pair outside the candidate set ("foreign" —
// what a prior run's M+ holds once blocking no longer proposes the pair)
// is never echoed and never supports another pair, so a warm start that
// carries one derives exactly what the cold run derives.

import (
	"testing"

	cem "repro"
	"repro/match"
)

func TestEvidenceContract(t *testing.T) {
	for _, tc := range []struct {
		matcher string
		scheme  cem.Scheme
	}{
		{cem.MatcherMLN, cem.SchemeMMP},
		{cem.MatcherRules, cem.SchemeSMP},
	} {
		t.Run(tc.matcher, func(t *testing.T) {
			// The warm start: the checker seeds the run with half the cold
			// fixpoint and every foreign pair.
			o := theorems(t, scenario{corpus: corpus{cem.HEPTH, 0.15, 42}, matcher: tc.matcher, scheme: tc.scheme, evidence: "foreign"})
			exp, foreign := o.world.exp, o.world.foreign
			if foreign.Len() == 0 {
				t.Fatal("fixture has no foreign pair")
			}
			// One Match call over every entity, over the largest
			// neighborhood and over each of the first 20: foreign pairs
			// as positive evidence add nothing, as negative evidence
			// suppress nothing.
			half := match.NewPairSet()
			for i, p := range o.ref.Matches.Sorted() {
				if i%2 == 0 {
					half.Add(p)
				}
			}
			all := make([]match.EntityID, exp.Dataset.NumRefs())
			for i := range all {
				all[i] = match.EntityID(i)
			}
			m := runner(t, exp, tc.matcher).Matcher()
			for _, pos := range []match.PairSet{nil, half} {
				for _, es := range append([][]match.EntityID{all, o.world.big}, exp.Cover.Sets[:min(20, len(exp.Cover.Sets))]...) {
					plain := m.Match(es, pos, nil)
					if with := m.Match(es, pos.Union(foreign), nil); !with.Equal(plain) {
						t.Fatalf("foreign positive evidence changed Match over %d entities: extra %v, missing %v",
							len(es), with.Minus(plain).Sorted(), plain.Minus(with).Sorted())
					}
					if got := m.Match(es, pos, foreign); !got.Equal(plain) {
						t.Fatalf("foreign negative evidence changed Match over %d entities", len(es))
					}
				}
			}
		})
	}
}
