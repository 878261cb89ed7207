package cem_test

// The dense extension is output-neutral: a built-in matcher run through
// its id-form methods (core.DenseMatcher) and the same matcher run
// through the PairSet forms alone — the engine then keeps all evidence in
// the overflow set, as it does for any third-party matcher — produce the
// same matches, the same outstanding messages and the same counters, on
// every placement, cold, warm-started and under negative evidence.

import (
	"fmt"
	"testing"

	cem "repro"
	"repro/internal/core"
	"repro/match"
)

func TestDenseEqualsGeneric(t *testing.T) {
	for _, c := range goldenSeeds {
		mlnM, rulesM := builtins(t, scenario{corpus: c}.world(t).exp)
		for _, m := range []match.Matcher{mlnM, rulesM} {
			if _, ok := m.(core.DenseMatcher); !ok {
				t.Fatalf("%T lost its dense extension", m)
			}
			if _, ok := match.Matcher(pairFormProb{pairForm{m}}).(core.DenseMatcher); ok {
				t.Fatalf("the pair form of %T exposes the dense extension", m)
			}
		}
		for matcher, schemes := range map[string][]cem.Scheme{
			cem.MatcherMLN:   {cem.SchemeNoMP, cem.SchemeSMP, cem.SchemeMMP},
			cem.MatcherRules: {cem.SchemeNoMP, cem.SchemeSMP},
		} {
			for _, scheme := range schemes {
				for _, seed := range []struct{ name, evidence string }{{"cold", ""}, {"warm", "foreign"}, {"negative", "negative"}} {
					if seed.name == "warm" && scheme == cem.SchemeNoMP {
						continue // NO-MP exchanges no evidence: nothing to warm-start
					}
					sc := scenario{corpus: c, matcher: matcher, twin: pairFormOf(matcher), scheme: scheme, evidence: seed.evidence}
					sc.ref(t, scheme)
					for _, place := range []string{"pool-1", "pool-4", "sharded-2", "sharded-net-2"} {
						t.Run(fmt.Sprintf("%s/%s/%s/%s/%s", c.kind, matcher, cem.CoreScheme(scheme), seed.name, place), func(t *testing.T) {
							t.Parallel()
							sc := sc
							sc.place = place
							theorems(t, sc)
						})
					}
				}
			}
		}
	}
}
