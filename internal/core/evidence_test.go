package core_test

import (
	"math/rand"
	"os"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/testmodel"
)

// readTrail decodes every round record of a checkpoint trail in round
// order, failing unless each record's evidence delta is a strictly
// increasing batch of valid pair keys (the wire delta contract).
func readTrail(t *testing.T, dir string) []*core.State {
	t.Helper()
	var recs []*core.State
	for _, f := range trailFiles(t, dir) {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		st, err := core.DecodeState(data)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for i, k := range st.Evidence {
			if a, b := uint32(k>>32), uint32(k); a >= b || b >= 1<<31 {
				t.Fatalf("%s: delta key %d (%#x) violates the pair-key contract", f, i, uint64(k))
			}
			if i > 0 && st.Evidence[i-1] >= k {
				t.Fatalf("%s: delta not strictly increasing at %d", f, i)
			}
		}
		if st.Header.Round != len(recs)+1 {
			t.Fatalf("%s carries round %d, want %d", f, st.Header.Round, len(recs)+1)
		}
		recs = append(recs, st)
	}
	return recs
}

// trailEvidence is the union of a trail's round deltas, ascending.
func trailEvidence(recs []*core.State) []core.PairKey {
	var keys []core.PairKey
	for _, r := range recs {
		keys = append(keys, r.Evidence...)
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// TestEvidenceStoreMirrorsRun pins the trail's evidence invariant: after
// any round-based run, the round deltas union to exactly the result's
// accumulated M+, and every delta obeyed the wire key contract.
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
			if got, want := trailEvidence(readTrail(t, dir)), res.Matches.SortedKeys(); !slices.Equal(got, want) {
				t.Fatalf("%s: trail holds %d keys, result %d", scheme, len(got), len(want))
			}
		}
	}
}

// TestEvidenceStoreWarmStart pins the warm-start protocol: the trail's
// first record is the seed, and the continuation's deltas union with it
// to the warm fixpoint.
func TestEvidenceStoreWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m, cover := testmodel.Random(rng)
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
	cold := runOn(t, cfg, "SMP", core.PoolBackend{})

	dir := t.TempDir()
	seed := cold.Matches.SortedKeys()
	warm := &core.WarmStart{Evidence: seed, Active: []int32{0}}
	res, err := core.RunBackendFrom(bg, cfg, "SMP", core.PoolBackend{}, core.CheckpointConfig{Dir: dir}, warm)
	if err != nil {
		t.Fatal(err)
	}
	recs := readTrail(t, dir)
	if len(recs) == 0 || !slices.Equal(recs[0].Evidence, seed) {
		t.Fatal("the warm trail's first record is not the seed")
	}
	if got, want := trailEvidence(recs), res.Matches.SortedKeys(); !slices.Equal(got, want) {
		t.Fatalf("warm trail holds %d keys, result %d", len(got), len(want))
	}
}

// TestEvidenceStoreResume pins the resume protocol: resuming a trail cut
// back to its first round rebuilds the uninterrupted run's result, and
// the continued trail again unions to it.
func TestEvidenceStoreResume(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	m, cover := testmodel.Random(rng)
	dir := t.TempDir()
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}

	full, err := core.RunBackend(bg, cfg, "SMP", core.PoolBackend{}, core.CheckpointConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range trailFiles(t, dir)[1:] {
		if err := os.Remove(f); err != nil {
			t.Fatal(err)
		}
	}
	resumed, err := core.RunBackend(bg, cfg, "SMP", core.PoolBackend{},
		core.CheckpointConfig{Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Matches.Equal(full.Matches) {
		t.Fatal("resume diverged from the original run")
	}
	if got, want := trailEvidence(readTrail(t, dir)), resumed.Matches.SortedKeys(); !slices.Equal(got, want) {
		t.Fatalf("resumed trail holds %d keys, result %d", len(got), len(want))
	}
}
