package cem_test

// The dense extension is output-neutral: a built-in matcher run through
// its id-form methods (core.DenseMatcher) and the same matcher run
// through the PairSet forms alone — the engine then keeps all evidence in
// the overflow set, as it does for any third-party matcher — produce the
// same matches, the same outstanding messages and the same counters, on
// every placement, cold, warm-started and under negative evidence.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	cem "repro"
	"repro/internal/core"
	emnet "repro/internal/net"
	"repro/match"
)

// pairForm hides a matcher's dense extension: it forwards every method
// that takes evidence as a PairSet, and has none that takes ids.
type pairForm struct{ m match.Matcher }

func (g pairForm) Match(es []match.EntityID, pos, neg match.PairSet) match.PairSet {
	return g.m.Match(es, pos, neg)
}
func (g pairForm) Candidates(es []match.EntityID) []match.Pair { return g.m.Candidates(es) }
func (g pairForm) PrepareCover(c *match.Cover)                 { g.m.(match.ScopePreparer).PrepareCover(c) }

// pairFormProb is pairForm for a Type-II matcher, with the PairSet forms
// of the MMP extensions.
type pairFormProb struct{ pairForm }

func (g pairFormProb) LogScore(s match.PairSet) float64 {
	return g.m.(match.Probabilistic).LogScore(s)
}
func (g pairFormProb) MaximalMessages(es []match.EntityID, mPlus, neg, base match.PairSet) ([][]match.Pair, int) {
	return g.m.(core.MaximalMessenger).MaximalMessages(es, mPlus, neg, base)
}
func (g pairFormProb) ScoreSetDelta(add []match.Pair, s match.PairSet) float64 {
	return g.m.(core.DeltaScorer).ScoreSetDelta(add, s)
}

// pinned is what the two paths must agree on: the outputs and every
// counter that does not measure time or the memo.
type pinned struct {
	Matches  []match.Pair
	Messages [][]match.Pair
	Evaluations, Skips, MessagesSent, MatcherCalls,
	MaximalMessages, PromotedSets, ScoreChecks, MaxRevisits int
	ActiveSizes []int
}

func pin(res *core.Result) pinned {
	s := res.Stats
	return pinned{res.Matches.Sorted(), res.Messages, s.Evaluations, s.Skips, s.MessagesSent, s.MatcherCalls,
		s.MaximalMessages, s.PromotedSets, s.ScoreChecks, s.MaxRevisits, s.ActiveSizes}
}

func TestDenseEqualsGeneric(t *testing.T) {
	type placement struct {
		name        string
		parallelism int
		backend     func() core.Backend
	}
	placements := []placement{
		{"pool-1", 1, func() core.Backend { return core.PoolBackend{} }},
		{"pool-4", 4, func() core.Backend { return core.PoolBackend{} }},
		{"sharded-2", 1, func() core.Backend { return cem.NewShardedNetBackend(2) }},
		// The same backend again, its worker streams crossing loopback TCP.
		{"sharded-net-2", 1, func() core.Backend {
			return &emnet.Backend{Workers: 2, Opts: emnet.Options{Wrap: overLoopback(t)}}
		}},
	}
	for _, ds := range goldenSeeds {
		exp, err := cem.New(cem.NewDataset(ds.kind, ds.scale, ds.seed))
		if err != nil {
			t.Fatal(err)
		}
		co := exp.Dataset.Coauthor()
		candidate := match.NewPairSet()
		for _, c := range exp.Candidates {
			candidate.Add(c.Pair)
		}
		// A pair no matcher has a variable for, inside a neighborhood so a
		// matcher that did read it would have every chance to.
		var vanished match.Pair
	search:
		for _, set := range exp.Cover.Sets {
			for i, a := range set {
				for _, b := range set[i+1:] {
					if p := match.MakePair(a, b); !candidate.Has(p) {
						vanished = p
						break search
					}
				}
			}
		}
		if !vanished.Valid() {
			t.Fatal("fixture has no in-scope non-candidate pair")
		}
		mlnM, rulesM := builtins(t, exp)
		all := make([]int32, exp.Cover.Len())
		for i := range all {
			all[i] = int32(i)
		}

		for _, tc := range []struct {
			name    string
			dense   match.Matcher
			generic match.Matcher
			schemes []string
		}{
			{"mln", mlnM, pairFormProb{pairForm{mlnM}}, []string{"NO-MP", "SMP", "MMP"}},
			{"rules", rulesM, pairForm{rulesM}, []string{"NO-MP", "SMP"}},
		} {
			if _, ok := tc.dense.(core.DenseMatcher); !ok {
				t.Fatalf("%s: the built-in matcher lost its dense extension", tc.name)
			}
			if _, ok := tc.generic.(core.DenseMatcher); ok {
				t.Fatalf("%s: the wrapper exposes the dense extension", tc.name)
			}
			for _, scheme := range tc.schemes {
				cold, err := core.RunBackend(context.Background(),
					core.Config{Cover: exp.Cover, Matcher: tc.dense, Relation: co}, scheme, core.PoolBackend{}, core.CheckpointConfig{})
				if err != nil {
					t.Fatal(err)
				}
				sorted := cold.Matches.Sorted()
				if len(sorted) < 2 {
					t.Fatalf("%s/%s: fixture matches too little", tc.name, scheme)
				}
				// The warm seed: every other cold match plus the vanished
				// candidate, every neighborhood active.
				warm := &core.WarmStart{Evidence: []match.PairKey{vanished.Key()}, Active: all}
				for i := 0; i < len(sorted); i += 2 {
					warm.Evidence = append(warm.Evidence, sorted[i].Key())
				}
				if scheme == "MMP" {
					warm.Messages = cold.Messages
				}
				for _, sc := range []struct {
					name     string
					negative match.PairSet
					warm     *core.WarmStart
				}{
					{"cold", nil, nil},
					{"warm", nil, warm},
					{"negative", match.NewPairSet(sorted[0], vanished), nil},
				} {
					if sc.warm != nil && scheme == "NO-MP" {
						continue // NO-MP exchanges no evidence: nothing to warm-start
					}
					for _, pl := range placements {
						t.Run(fmt.Sprintf("%s/%s/%s/%s/%s", ds.kind, tc.name, scheme, sc.name, pl.name), func(t *testing.T) {
							run := func(m match.Matcher) pinned {
								cfg := core.Config{Cover: exp.Cover, Matcher: m, Relation: co,
									Negative: sc.negative, Parallelism: pl.parallelism}
								res, err := core.RunBackendFrom(context.Background(), cfg, scheme, pl.backend(), core.CheckpointConfig{}, sc.warm)
								if err != nil {
									t.Fatal(err)
								}
								return pin(res)
							}
							dense, generic := run(tc.dense), run(tc.generic)
							if !reflect.DeepEqual(dense, generic) {
								t.Errorf("dense and generic runs differ:\ndense   %+v\ngeneric %+v", brief(dense), brief(generic))
							}
							if sc.warm != nil && !match.NewPairSet(dense.Matches...).Has(vanished) {
								t.Error("the warm start's vanished candidate was dropped from the match set")
							}
						})
					}
				}
			}
		}
	}
}

// brief is pinned without the long lists, for a readable failure.
func brief(p pinned) string {
	return fmt.Sprintf("matches=%d messages=%d evals=%d skips=%d sent=%d calls=%d maximal=%d promoted=%d checks=%d revisits=%d active=%d",
		len(p.Matches), len(p.Messages), p.Evaluations, p.Skips, p.MessagesSent, p.MatcherCalls,
		p.MaximalMessages, p.PromotedSets, p.ScoreChecks, p.MaxRevisits, len(p.ActiveSizes))
}
