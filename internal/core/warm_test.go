package core_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	emnet "repro/internal/net"
	"repro/internal/store"
	"repro/internal/testmodel"
	"repro/internal/wire"
)

// warmOf captures a completed run as a warm-start seed.
func warmOf(res *core.Result, active []int32) *core.State {
	return core.WarmState(res.Matches.SortedKeys(), res.Messages, active)
}

// TestWarmStartFixpointStability: seeding a run with a completed run's
// evidence and outstanding messages is a no-op — with an empty active
// seed nothing is evaluated at all, and with the FULL active set every
// neighborhood is either skipped or re-derives only known matches. Both
// land on the cold result's exact match set.
func TestWarmStartFixpointStability(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		m, cover := testmodel.Random(rng)
		for _, scheme := range []string{"NO-MP", "SMP", "MMP"} {
			wrapped := &countingMatcher{Model: m}
			cfg := core.Config{Cover: cover, Matcher: wrapped, Relation: m.Relation()}
			cold, err := core.RunBackend(bg, cfg, scheme, core.PoolBackend{})
			if err != nil {
				t.Fatal(err)
			}

			wrapped.calls.Store(0)
			idle, err := core.RunBackendFrom(bg, cfg, scheme, core.PoolBackend{}, warmOf(cold, nil))
			if err != nil {
				t.Fatal(err)
			}
			if wrapped.calls.Load() != 0 {
				t.Errorf("%s: empty active seed still called the matcher %d times", scheme, wrapped.calls.Load())
			}
			if !idle.Matches.Equal(cold.Matches) {
				t.Errorf("%s: empty-seed warm start diverges: %d vs %d matches",
					scheme, idle.Matches.Len(), cold.Matches.Len())
			}

			all := make([]int32, cover.Len())
			for i := range all {
				all[i] = int32(i)
			}
			full, err := core.RunBackendFrom(bg, cfg, scheme, &emnet.Backend{Workers: 3}, warmOf(cold, all))
			if err != nil {
				t.Fatal(err)
			}
			if !full.Matches.Equal(cold.Matches) {
				t.Errorf("%s: full-reactivation warm start diverges: %d vs %d matches",
					scheme, full.Matches.Len(), cold.Matches.Len())
			}
		}
	}
}

// TestWarmStartContinuesFromRoundBoundary: the state after round r of a
// cold run — its saved evidence, next active set and outstanding
// messages — fed back through RunBackendFrom as a warm seed must finish
// on the cold run's exact match set, for every r, both backends. Warm
// continuation is round-boundary resume through a seed instead of the
// saved state itself.
func TestWarmStartContinuesFromRoundBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		m, cover := testmodel.Random(rng)
		cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
		for _, scheme := range []string{"SMP", "MMP"} {
			cold := runOn(t, cfg, scheme, core.PoolBackend{})
			for r := 1; ; r++ {
				mapped := cfg
				mapped.Parallelism = 2
				st, killed := killAfter(t, mapped, scheme, core.PoolBackend{}, r)
				saved, err := core.DecodeState(savedBlob(t, st))
				if err != nil {
					t.Fatal(err)
				}
				warm := core.WarmState(saved.Evidence, saved.Messages, saved.Header.Active)
				for _, b := range []core.Backend{core.PoolBackend{}, &emnet.Backend{Workers: 2}} {
					res, err := core.RunBackendFrom(bg, cfg, scheme, b, warm)
					if err != nil {
						t.Fatalf("%s: warm continuation from round %d: %v", scheme, r, err)
					}
					if !res.Matches.Equal(cold.Matches) {
						t.Errorf("%s: warm continuation from round %d diverges: %d vs %d matches",
							scheme, r, res.Matches.Len(), cold.Matches.Len())
					}
				}
				if !killed {
					break
				}
			}
		}
	}
}

// TestWarmStartTrailResumes: a warm-started run saving its state saves
// its seed first (round 1), so it resumes through the ordinary resume
// path — a completed run rebuilds without matcher calls, and a run killed
// before its first continuation round ends resumes from the seed to the
// same result.
func TestWarmStartTrailResumes(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 10; trial++ {
		m, cover := testmodel.Random(rng)
		for _, scheme := range []string{"SMP", "MMP"} {
			wrapped := &countingMatcher{Model: m}
			cfg := core.Config{Cover: cover, Matcher: wrapped, Relation: m.Relation()}
			cold, err := core.RunBackend(bg, cfg, scheme, core.PoolBackend{})
			if err != nil {
				t.Fatal(err)
			}
			// Continue from the cold result with the full active set while
			// saving.
			all := make([]int32, cover.Len())
			for i := range all {
				all[i] = int32(i)
			}
			st := store.NewMem()
			warmRes, err := core.RunBackendFrom(bg, savingInto(cfg, st), scheme, core.PoolBackend{}, warmOf(cold, all))
			if err != nil {
				t.Fatal(err)
			}
			if ck := readCheckpoint(t, st); ck == nil || ck.Round < 2 || !ck.Done {
				t.Fatalf("%s: warm run's last state is %+v, want a Done one past the seed round", scheme, ck)
			}

			wrapped.calls.Store(0)
			resumed, err := resumeFrom(cfg, scheme, core.PoolBackend{}, st)
			if err != nil {
				t.Fatalf("%s: resuming the completed warm run: %v", scheme, err)
			}
			if wrapped.calls.Load() != 0 {
				t.Errorf("%s: resuming a completed warm run called the matcher %d times", scheme, wrapped.calls.Load())
			}
			if !resumed.Matches.Equal(warmRes.Matches) {
				t.Errorf("%s: warm resume diverges: %d vs %d matches",
					scheme, resumed.Matches.Len(), warmRes.Matches.Len())
			}

			// Kill a warm run before its first continuation round ends: only
			// the seed is saved, and the resume must re-execute the
			// continuation and land on the same set.
			st = store.NewMem()
			killed, cancel := context.WithCancel(bg)
			cancel()
			if _, err := core.RunBackendFrom(killed, savingInto(cfg, st), scheme, core.PoolBackend{},
				warmOf(cold, all)); err != context.Canceled {
				t.Fatalf("%s: killed warm run: %v, want context.Canceled", scheme, err)
			}
			if ck := readCheckpoint(t, st); ck == nil || ck.Round != 1 {
				t.Fatalf("%s: killed warm run left state %+v, want the seed's (round 1)", scheme, ck)
			}
			truncated, err := resumeFrom(cfg, scheme, &emnet.Backend{Workers: 2}, st)
			if err != nil {
				t.Fatalf("%s: resuming from the seed state: %v", scheme, err)
			}
			if !truncated.Matches.Equal(warmRes.Matches) {
				t.Errorf("%s: resume from the seed state diverges: %d vs %d matches",
					scheme, truncated.Matches.Len(), warmRes.Matches.Len())
			}
		}
	}
}

// TestWarmStartValidation pins the seed's error paths.
func TestWarmStartValidation(t *testing.T) {
	m, cover, _ := testmodel.PaperExample()
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
	msg := []core.Pair{core.MakePair(0, 1), core.MakePair(1, 2)}

	cases := []struct {
		name   string
		scheme string
		warm   *core.State
	}{
		{"messages on SMP", "SMP", core.WarmState(nil, [][]core.Pair{msg}, nil)},
		{"active out of range", "SMP", core.WarmState(nil, nil, []int32{int32(cover.Len())})},
		{"negative active", "SMP", core.WarmState(nil, nil, []int32{-1})},
		{"evidence out of range", "SMP",
			core.WarmState([]core.PairKey{core.MakePair(0, core.EntityID(cover.NumEntities)).Key()}, nil, nil)},
		{"reflexive evidence", "SMP", core.WarmState([]core.PairKey{core.Pair{A: 2, B: 2}.Key()}, nil, nil)},
		// (-2147483648, 2): normalized, B in range, and no entity.
		{"negative entity in evidence", "SMP", core.WarmState([]core.PairKey{1<<63 | 2}, nil, nil)},
		{"negative entity in a message", "MMP",
			core.WarmState(nil, [][]core.Pair{{{A: -1, B: 2}, core.MakePair(0, 1)}}, nil)},
		{"visits of another cover", "SMP", &core.State{Header: wire.Checkpoint{Visits: make([]int, cover.Len()+1)}}},
	}
	for _, tc := range cases {
		if _, err := core.RunBackendFrom(bg, cfg, tc.scheme, core.PoolBackend{}, tc.warm); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	// A nil seed degrades to a plain cold run.
	res, err := core.RunBackendFrom(bg, cfg, "SMP", core.PoolBackend{}, nil)
	if err != nil || res == nil {
		t.Fatalf("nil warm start: %v", err)
	}
}
