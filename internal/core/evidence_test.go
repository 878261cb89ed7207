package core_test

import (
	"context"
	"math/rand"
	"os"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/testmodel"
	"repro/internal/wire"
)

// checkpointEvidence decodes dir's checkpoint, failing unless it is
// exactly one record whose evidence is a strictly increasing batch of
// valid pair keys (the wire delta contract), and returns that evidence.
func checkpointEvidence(t *testing.T, dir string) []core.PairKey {
	t.Helper()
	files := trailFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("%s holds %d checkpoints, want one", dir, len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.UnmarshalCheckpoint(data); err != nil {
		t.Fatalf("%s is not exactly one checkpoint: %v", files[0], err)
	}
	st, err := core.DecodeState(data)
	if err != nil {
		t.Fatalf("%s: %v", files[0], err)
	}
	for i, k := range st.Evidence {
		if a, b := uint32(k>>32), uint32(k); a >= b || b >= 1<<31 {
			t.Fatalf("%s: key %d (%#x) violates the pair-key contract", files[0], i, uint64(k))
		}
		if i > 0 && st.Evidence[i-1] >= k {
			t.Fatalf("%s: evidence not strictly increasing at %d", files[0], i)
		}
	}
	return st.Evidence
}

// TestEvidenceStoreMirrorsRun pins the checkpoint's evidence invariant:
// after any round-based run, the checkpoint holds exactly the result's
// accumulated M+, under the wire key contract.
func TestEvidenceStoreMirrorsRun(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		m, cover := testmodel.Random(rng)
		for _, scheme := range []string{"NO-MP", "SMP", "MMP"} {
			dir := t.TempDir()
			cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
			res, err := core.RunBackend(bg, cfg, scheme, core.PoolBackend{}, core.CheckpointConfig{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := checkpointEvidence(t, dir), res.Matches.SortedKeys(); !slices.Equal(got, want) {
				t.Fatalf("%s: checkpoint holds %d keys, result %d", scheme, len(got), len(want))
			}
		}
	}
}

// TestEvidenceStoreWarmStart pins the warm-start protocol: the first
// checkpoint a warm run writes is its seed — a run killed before its
// first round ends leaves exactly that — and the finished run's
// checkpoint holds the warm fixpoint.
func TestEvidenceStoreWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m, cover := testmodel.Random(rng)
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
	cold := runOn(t, cfg, "SMP", core.PoolBackend{})

	seed := cold.Matches.SortedKeys()
	warm := &core.WarmStart{Evidence: seed, Active: []int32{0}}
	killed, cancel := context.WithCancel(bg)
	cancel()
	dir := t.TempDir()
	if _, err := core.RunBackendFrom(killed, cfg, "SMP", core.PoolBackend{}, core.CheckpointConfig{Dir: dir}, warm); err != context.Canceled {
		t.Fatalf("killed warm run: %v, want context.Canceled", err)
	}
	if !slices.Equal(checkpointEvidence(t, dir), seed) {
		t.Fatal("the warm run's first checkpoint is not the seed")
	}

	dir = t.TempDir()
	res, err := core.RunBackendFrom(bg, cfg, "SMP", core.PoolBackend{}, core.CheckpointConfig{Dir: dir}, warm)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := checkpointEvidence(t, dir), res.Matches.SortedKeys(); !slices.Equal(got, want) {
		t.Fatalf("warm checkpoint holds %d keys, result %d", len(got), len(want))
	}
}

// TestEvidenceStoreResume pins the resume protocol: resuming a run
// killed after its first round rebuilds the uninterrupted run's result,
// and the resumed run's checkpoint again holds it.
func TestEvidenceStoreResume(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	m, cover := testmodel.Random(rng)
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation(), Parallelism: 2}

	full := runOn(t, cfg, "SMP", core.PoolBackend{})
	dir, killed := killAfter(t, cfg, "SMP", core.PoolBackend{}, 1)
	if !killed {
		t.Fatal("the run ended in round 1; the test needs a second round")
	}
	resumed, err := core.RunBackend(bg, cfg, "SMP", core.PoolBackend{},
		core.CheckpointConfig{Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Matches.Equal(full.Matches) {
		t.Fatal("resume diverged from the original run")
	}
	if got, want := checkpointEvidence(t, dir), resumed.Matches.SortedKeys(); !slices.Equal(got, want) {
		t.Fatalf("resumed checkpoint holds %d keys, result %d", len(got), len(want))
	}
}
