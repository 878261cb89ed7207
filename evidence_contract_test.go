package cem_test

// The evidence contract of core.Matcher, held against both built-in
// matchers from one table: evidence is read on the matcher's ground
// candidate pairs only. A pair outside the candidate set ("foreign" —
// what a prior run's M+ holds once blocking no longer proposes the pair)
// is never echoed and never supports another pair, so a warm start that
// carries one derives exactly what the cold run derives.

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"

	cem "repro"
	"repro/internal/core"
	"repro/internal/wire"
	"repro/match"
)

func TestEvidenceContract(t *testing.T) {
	exp, err := cem.New(cem.NewDataset(cem.HEPTH, 0.15, 42))
	if err != nil {
		t.Fatal(err)
	}
	candidate := match.NewPairSet()
	for _, c := range exp.Candidates {
		candidate.Add(c.Pair)
	}
	co := exp.Dataset.Coauthor()
	// Foreign pairs where they would matter most: for every candidate
	// (a, b), the non-candidate pairs {c1, c2} of a coauthor of a and a
	// coauthor of b — exactly the pairs both coauthor rules consult — plus
	// the in-scope non-candidate pairs of the largest neighborhood.
	foreign := match.NewPairSet()
	for _, c := range exp.Candidates {
		for _, c1 := range co.Neighbors(c.Pair.A) {
			for _, c2 := range co.Neighbors(c.Pair.B) {
				if p := match.MakePair(c1, c2); c1 != c2 && !candidate.Has(p) {
					foreign.Add(p)
				}
			}
		}
	}
	big := exp.Cover.Sets[0]
	for _, set := range exp.Cover.Sets {
		if len(set) > len(big) {
			big = set
		}
	}
	for i, a := range big {
		for _, b := range big[i+1:] {
			if p := match.MakePair(a, b); !candidate.Has(p) {
				foreign.Add(p)
			}
		}
	}
	if foreign.Len() == 0 {
		t.Fatal("fixture has no foreign pair")
	}
	mlnM, rulesM := builtins(t, exp)
	all := make([]match.EntityID, exp.Dataset.NumRefs())
	for i := range all {
		all[i] = match.EntityID(i)
	}

	for _, tc := range []struct {
		name    string
		matcher match.Matcher
		scheme  string
	}{
		{"mln", mlnM, "MMP"},
		{"rules", rulesM, "SMP"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.Config{Cover: exp.Cover, Matcher: tc.matcher, Relation: co}
			cold, err := core.RunBackend(context.Background(), cfg, tc.scheme, core.PoolBackend{}, core.CheckpointConfig{})
			if err != nil {
				t.Fatal(err)
			}
			// Some real evidence beside the foreign pairs: half the cold
			// fixpoint.
			half := match.NewPairSet()
			for i, p := range cold.Matches.Sorted() {
				if i%2 == 0 {
					half.Add(p)
				}
			}
			scopes := append([][]match.EntityID{all, big}, exp.Cover.Sets[:min(20, len(exp.Cover.Sets))]...)
			for _, pos := range []match.PairSet{nil, half} {
				for _, es := range scopes {
					plain := tc.matcher.Match(es, pos, nil)
					with := tc.matcher.Match(es, pos.Union(foreign), nil)
					if !with.Equal(plain) {
						t.Fatalf("foreign positive evidence changed Match over %d entities: extra %v, missing %v",
							len(es), with.Minus(plain).Sorted(), plain.Minus(with).Sorted())
					}
					// As negative evidence a foreign pair suppresses nothing.
					if got := tc.matcher.Match(es, pos, foreign); !got.Equal(plain) {
						t.Fatalf("foreign negative evidence changed Match over %d entities", len(es))
					}
				}
			}
			// Warm start from the cold fixpoint plus vanished candidates,
			// every neighborhood active: the engine keeps carrying the
			// pairs it was seeded with, and the matcher adds nothing.
			warm := &core.WarmStart{Evidence: cold.Matches.Union(foreign).SortedKeys()}
			for id := range exp.Cover.Sets {
				warm.Active = append(warm.Active, int32(id))
			}
			if tc.scheme == "MMP" {
				warm.Messages = cold.Messages
			}
			// The run leaves a checkpoint trail, so the carried pairs can be
			// followed through it.
			ck := core.CheckpointConfig{Dir: t.TempDir()}
			res, err := core.RunBackendFrom(context.Background(), cfg, tc.scheme, core.PoolBackend{}, ck, warm)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Matches.Minus(foreign); !got.Equal(cold.Matches) {
				t.Fatalf("warm start with vanished candidates: extra %v, missing %v",
					got.Minus(cold.Matches).Sorted(), cold.Matches.Minus(got).Sorted())
			}
			if !foreign.Subset(res.Matches) {
				t.Fatalf("the run dropped %d of the pairs it was seeded with", foreign.Minus(res.Matches).Len())
			}
			// The trail's first record is the seed itself, vanished
			// candidates included, as one ascending batch.
			raw, err := os.ReadFile(filepath.Join(ck.Dir, "round-000001.ckpt"))
			if err != nil {
				t.Fatal(err)
			}
			first, err := wire.UnmarshalCheckpoint(raw)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.EqualFunc(first.Delta, warm.Evidence, func(a uint64, b match.PairKey) bool { return a == uint64(b) }) {
				t.Fatalf("the trail's seed record holds %d keys, the seed %d", len(first.Delta), len(warm.Evidence))
			}
			// And replaying the trail rebuilds the same result.
			ck.Resume = true
			resumed, err := core.RunBackend(context.Background(), cfg, tc.scheme, core.PoolBackend{}, ck)
			if err != nil {
				t.Fatal(err)
			}
			if !resumed.Matches.Equal(res.Matches) {
				t.Fatalf("resuming the trail: extra %v, missing %v",
					resumed.Matches.Minus(res.Matches).Sorted(), res.Matches.Minus(resumed.Matches).Sorted())
			}
		})
	}
}
