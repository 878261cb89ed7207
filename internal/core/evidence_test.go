package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/testmodel"
)

// recordingStore is a minimal EvidenceStore capturing the driver's
// clear/put protocol.
type recordingStore struct {
	keys   map[uint64]struct{}
	clears int
	puts   int
}

func newRecordingStore() *recordingStore {
	return &recordingStore{keys: map[uint64]struct{}{}}
}

func (r *recordingStore) ClearEvidence() error {
	r.clears++
	r.keys = map[uint64]struct{}{}
	return nil
}

func (r *recordingStore) PutEvidence(keys []uint64) error {
	r.puts++
	for i, k := range keys {
		a, b := uint32(k>>32), uint32(k)
		if a >= b || b >= 1<<31 {
			return fmt.Errorf("batch key %d (%#x) violates the pair-key contract", i, k)
		}
		if i > 0 && keys[i-1] >= k {
			return fmt.Errorf("batch not strictly increasing at %d", i)
		}
		r.keys[k] = struct{}{}
	}
	return nil
}

func (r *recordingStore) sorted() []core.PairKey {
	out := make([]core.PairKey, 0, len(r.keys))
	for k := range r.keys {
		out = append(out, core.PairKey(k))
	}
	slices.Sort(out)
	return out
}

// TestEvidenceStoreMirrorsRun pins the driver invariant: after any
// round-based run, the evidence store holds exactly the result's
// accumulated M+, and every batch obeyed the wire key contract.
func TestEvidenceStoreMirrorsRun(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		m, cover := testmodel.Random(rng)
		for _, scheme := range []string{"NO-MP", "SMP", "MMP"} {
			es := newRecordingStore()
			cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation(), Evidence: es}
			res, err := core.RunBackend(bg, cfg, scheme, core.PoolBackend{}, core.CheckpointConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if es.clears == 0 {
				t.Fatalf("%s: cold run never cleared the evidence store", scheme)
			}
			if got, want := es.sorted(), res.Matches.SortedKeys(); !slices.Equal(got, want) {
				t.Fatalf("%s: store holds %d keys, result %d", scheme, len(got), len(want))
			}
		}
	}
}

// TestEvidenceStoreWarmStart pins the warm-start protocol: the store is
// reset to the seed, then accumulates the continuation's deltas, ending
// equal to the warm fixpoint.
func TestEvidenceStoreWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m, cover := testmodel.Random(rng)
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
	cold := runOn(t, cfg, "SMP", core.PoolBackend{})

	es := newRecordingStore()
	cfg.Evidence = es
	warm := &core.WarmStart{
		Evidence: cold.Matches.SortedKeys(),
		Active:   []int32{0},
	}
	res, err := core.RunBackendFrom(bg, cfg, "SMP", core.PoolBackend{}, core.CheckpointConfig{}, warm)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := es.sorted(), res.Matches.SortedKeys(); !slices.Equal(got, want) {
		t.Fatalf("warm store holds %d keys, result %d", len(got), len(want))
	}
}

// TestEvidenceStoreResume pins the resume protocol: resuming a
// checkpoint trail resets the store to the trail's accumulated state
// (never unioned with a previous run's leftovers).
func TestEvidenceStoreResume(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	m, cover := testmodel.Random(rng)
	dir := t.TempDir()
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}

	full, err := core.RunBackend(bg, cfg, "SMP", core.PoolBackend{}, core.CheckpointConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}

	es := newRecordingStore()
	// Poison the store: a resume must clear this leftover, not merge it.
	es.keys[1<<40|7] = struct{}{}
	cfg.Evidence = es
	resumed, err := core.RunBackend(bg, cfg, "SMP", core.PoolBackend{},
		core.CheckpointConfig{Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Matches.Equal(full.Matches) {
		t.Fatal("resume diverged from the original run")
	}
	if got, want := es.sorted(), resumed.Matches.SortedKeys(); !slices.Equal(got, want) {
		t.Fatalf("resumed store holds %d keys, result %d", len(got), len(want))
	}
}
