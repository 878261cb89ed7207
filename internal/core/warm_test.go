package core_test

import (
	"math/rand"
	"os"
	"testing"

	"repro/internal/core"
	emnet "repro/internal/net"
	"repro/internal/testmodel"
	"repro/internal/wire"
)

// warmOf captures a completed run as a warm-start seed.
func warmOf(res *core.Result, active []int32) *core.WarmStart {
	return &core.WarmStart{
		Evidence: res.Matches.SortedKeys(),
		Messages: res.Messages,
		Active:   active,
	}
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
			cold, err := core.RunBackend(bg, cfg, scheme, core.PoolBackend{}, core.CheckpointConfig{})
			if err != nil {
				t.Fatal(err)
			}

			wrapped.calls.Store(0)
			idle, err := core.RunBackendFrom(bg, cfg, scheme, core.PoolBackend{},
				core.CheckpointConfig{}, warmOf(cold, nil))
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
			full, err := core.RunBackendFrom(bg, cfg, scheme, &emnet.Backend{Workers: 3},
				core.CheckpointConfig{}, warmOf(cold, all))
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
// cold checkpointed run — replayed evidence, next active set, outstanding
// messages — fed back through RunBackendFrom must finish on the cold
// run's exact match set, for every r, both backends. Warm continuation
// is round-boundary resume through the public seed instead of the trail.
func TestWarmStartContinuesFromRoundBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		m, cover := testmodel.Random(rng)
		cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
		for _, scheme := range []string{"SMP", "MMP"} {
			dir := t.TempDir()
			cold, err := core.RunBackend(bg, cfg, scheme, core.PoolBackend{}, core.CheckpointConfig{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			files := trailFiles(t, dir)
			evidence := core.NewPairSet()
			for r, f := range files {
				raw, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				ck, err := wire.UnmarshalCheckpoint(raw)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range ck.Delta {
					evidence.AddKey(core.PairKey(k))
				}
				warm := &core.WarmStart{Evidence: evidence.SortedKeys(), Active: ck.Active}
				for _, g := range ck.Messages {
					msg := make([]core.Pair, len(g))
					for i, k := range g {
						msg[i] = core.PairKey(k).Pair()
					}
					warm.Messages = append(warm.Messages, msg)
				}
				for _, b := range []core.Backend{core.PoolBackend{}, &emnet.Backend{Workers: 2}} {
					res, err := core.RunBackendFrom(bg, cfg, scheme, b, core.CheckpointConfig{}, warm)
					if err != nil {
						t.Fatalf("%s: warm continuation from round %d: %v", scheme, r+1, err)
					}
					if !res.Matches.Equal(cold.Matches) {
						t.Errorf("%s: warm continuation from round %d diverges: %d vs %d matches",
							scheme, r+1, res.Matches.Len(), cold.Matches.Len())
					}
				}
			}
		}
	}
}

// TestWarmStartTrailResumes: a warm-started checkpointing run writes its
// seed as round 1, so the trail resumes through the ordinary checkpoint
// path — completed trails rebuild without matcher calls, and truncating
// the trail back to just the synthetic seed record still converges to
// the same result.
func TestWarmStartTrailResumes(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 10; trial++ {
		m, cover := testmodel.Random(rng)
		for _, scheme := range []string{"SMP", "MMP"} {
			wrapped := &countingMatcher{Model: m}
			cfg := core.Config{Cover: cover, Matcher: wrapped, Relation: m.Relation()}
			cold, err := core.RunBackend(bg, cfg, scheme, core.PoolBackend{}, core.CheckpointConfig{})
			if err != nil {
				t.Fatal(err)
			}
			// Continue from the cold round-1 state (its checkpoint delta is
			// its new matches; emulate with evidence = cold matches and the
			// full active set) while writing a warm trail.
			all := make([]int32, cover.Len())
			for i := range all {
				all[i] = int32(i)
			}
			dir := t.TempDir()
			warmRes, err := core.RunBackendFrom(bg, cfg, scheme, core.PoolBackend{},
				core.CheckpointConfig{Dir: dir}, warmOf(cold, all))
			if err != nil {
				t.Fatal(err)
			}
			files := trailFiles(t, dir)
			if len(files) < 2 {
				t.Fatalf("%s: warm trail has %d records, want seed + >=1 round", scheme, len(files))
			}

			wrapped.calls.Store(0)
			resumed, err := core.RunBackend(bg, cfg, scheme, core.PoolBackend{},
				core.CheckpointConfig{Dir: dir, Resume: true})
			if err != nil {
				t.Fatalf("%s: resuming the completed warm trail: %v", scheme, err)
			}
			if wrapped.calls.Load() != 0 {
				t.Errorf("%s: resuming a completed warm trail called the matcher %d times", scheme, wrapped.calls.Load())
			}
			if !resumed.Matches.Equal(warmRes.Matches) {
				t.Errorf("%s: warm-trail resume diverges: %d vs %d matches",
					scheme, resumed.Matches.Len(), warmRes.Matches.Len())
			}

			// Kill everything after the synthetic seed record and resume:
			// must re-execute the continuation and land on the same set.
			for _, f := range files[1:] {
				if err := os.Remove(f); err != nil {
					t.Fatal(err)
				}
			}
			truncated, err := core.RunBackend(bg, cfg, scheme, &emnet.Backend{Workers: 2},
				core.CheckpointConfig{Dir: dir, Resume: true})
			if err != nil {
				t.Fatalf("%s: resuming the truncated warm trail: %v", scheme, err)
			}
			if !truncated.Matches.Equal(warmRes.Matches) {
				t.Errorf("%s: truncated warm-trail resume diverges: %d vs %d matches",
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
		ck     core.CheckpointConfig
		warm   *core.WarmStart
	}{
		{"messages on SMP", "SMP", core.CheckpointConfig{},
			&core.WarmStart{Messages: [][]core.Pair{msg}}},
		{"active out of range", "SMP", core.CheckpointConfig{},
			&core.WarmStart{Active: []int32{int32(cover.Len())}}},
		{"negative active", "SMP", core.CheckpointConfig{},
			&core.WarmStart{Active: []int32{-1}}},
		{"evidence out of range", "SMP", core.CheckpointConfig{},
			&core.WarmStart{Evidence: []core.PairKey{core.MakePair(0, core.EntityID(cover.NumEntities)).Key()}}},
		{"reflexive evidence", "SMP", core.CheckpointConfig{},
			&core.WarmStart{Evidence: []core.PairKey{core.Pair{A: 2, B: 2}.Key()}}},
		// (-2147483648, 2): normalized, B in range, and no entity.
		{"negative entity in evidence", "SMP", core.CheckpointConfig{},
			&core.WarmStart{Evidence: []core.PairKey{1<<63 | 2}}},
		{"negative entity in a message", "MMP", core.CheckpointConfig{},
			&core.WarmStart{Messages: [][]core.Pair{{{A: -1, B: 2}, core.MakePair(0, 1)}}}},
		{"warm with resume", "SMP", core.CheckpointConfig{Dir: t.TempDir(), Resume: true},
			&core.WarmStart{}},
	}
	for _, tc := range cases {
		if _, err := core.RunBackendFrom(bg, cfg, tc.scheme, core.PoolBackend{}, tc.ck, tc.warm); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	// nil warm start degrades to a plain cold run.
	res, err := core.RunBackendFrom(bg, cfg, "SMP", core.PoolBackend{}, core.CheckpointConfig{}, nil)
	if err != nil || res == nil {
		t.Fatalf("nil warm start: %v", err)
	}
}
