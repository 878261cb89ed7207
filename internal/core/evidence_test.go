package core_test

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/testmodel"
	"repro/internal/wire"
)

// checkpointEvidence decodes st's state blob, failing unless it is
// exactly one record whose evidence is a strictly increasing batch of
// valid pair keys (the wire delta contract), and returns that evidence.
func checkpointEvidence(t *testing.T, st store.Store) []core.PairKey {
	t.Helper()
	data := savedBlob(t, st)
	if _, err := wire.UnmarshalCheckpoint(data); err != nil {
		t.Fatalf("the state blob is not exactly one record: %v", err)
	}
	s, err := core.DecodeState(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range s.Evidence {
		if a, b := uint32(k>>32), uint32(k); a >= b || b >= 1<<31 {
			t.Fatalf("key %d (%#x) violates the pair-key contract", i, uint64(k))
		}
		if i > 0 && s.Evidence[i-1] >= k {
			t.Fatalf("evidence not strictly increasing at %d", i)
		}
	}
	return s.Evidence
}

// TestEvidenceStoreMirrorsRun pins the saved state's evidence invariant:
// after any round-based run, the state holds exactly the result's
// accumulated M+, under the wire key contract.
func TestEvidenceStoreMirrorsRun(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		m, cover := testmodel.Random(rng)
		for _, scheme := range []string{"NO-MP", "SMP", "MMP"} {
			st := store.NewMem()
			cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
			res, err := core.RunBackend(bg, savingInto(cfg, st), scheme, core.PoolBackend{})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := checkpointEvidence(t, st), res.Matches.SortedKeys(); !slices.Equal(got, want) {
				t.Fatalf("%s: the state holds %d keys, result %d", scheme, len(got), len(want))
			}
		}
	}
}

// TestEvidenceStoreWarmStart pins the warm-start protocol: the first
// state a warm run saves is its seed — a run killed before its first
// round ends leaves exactly that — and the finished run's state holds the
// warm fixpoint.
func TestEvidenceStoreWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m, cover := testmodel.Random(rng)
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
	cold := runOn(t, cfg, "SMP", core.PoolBackend{})

	seed := cold.Matches.SortedKeys()
	warm := core.WarmState(seed, nil, []int32{0})
	killed, cancel := context.WithCancel(bg)
	cancel()
	st := store.NewMem()
	if _, err := core.RunBackendFrom(killed, savingInto(cfg, st), "SMP", core.PoolBackend{}, warm); err != context.Canceled {
		t.Fatalf("killed warm run: %v, want context.Canceled", err)
	}
	if !slices.Equal(checkpointEvidence(t, st), seed) {
		t.Fatal("the warm run's first state is not the seed")
	}

	st = store.NewMem()
	res, err := core.RunBackendFrom(bg, savingInto(cfg, st), "SMP", core.PoolBackend{}, warm)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := checkpointEvidence(t, st), res.Matches.SortedKeys(); !slices.Equal(got, want) {
		t.Fatalf("the warm state holds %d keys, result %d", len(got), len(want))
	}
}

// TestEvidenceStoreResume pins the resume protocol: resuming a run
// killed after its first round rebuilds the uninterrupted run's result,
// and the resumed run's state again holds it.
func TestEvidenceStoreResume(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	m, cover := testmodel.Random(rng)
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation(), Parallelism: 2}

	full := runOn(t, cfg, "SMP", core.PoolBackend{})
	st, killed := killAfter(t, cfg, "SMP", core.PoolBackend{}, 1)
	if !killed {
		t.Fatal("the run ended in round 1; the test needs a second round")
	}
	resumed, err := resumeFrom(cfg, "SMP", core.PoolBackend{}, st)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Matches.Equal(full.Matches) {
		t.Fatal("resume diverged from the original run")
	}
	if got, want := checkpointEvidence(t, st), resumed.Matches.SortedKeys(); !slices.Equal(got, want) {
		t.Fatalf("the resumed state holds %d keys, result %d", len(got), len(want))
	}
}
