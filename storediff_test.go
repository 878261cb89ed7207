package cem_test

// Differential harness for the storage backends on the incremental
// ingestion path (the batch runs are store rows of the conformance
// matrix): batched arrivals saved into the "mem" and the "disk" store
// after every commit must reopen to the cold run's exact result.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	cem "repro"
	"repro/match"
)

// storeVariant names a storage backend and the options that open it.
type storeVariant struct {
	name string
	opts []cem.StoreOption
}

func storeVariants(t *testing.T) []storeVariant {
	t.Helper()
	return []storeVariant{
		{"mem", nil},
		{"disk", []cem.StoreOption{cem.WithStoreDir(t.TempDir())}},
	}
}

// open opens the variant's store, closed when the test ends.
func (sv storeVariant) open(t *testing.T) match.Store {
	t.Helper()
	s, err := cem.OpenStore(sv.name, sv.opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// reopen returns the store a restarted process would read: a fresh
// handle on the same directory for a disk store, the same handle for a
// mem store (its state lives only in the process).
func (sv storeVariant) reopen(t *testing.T, s match.Store) match.Store {
	t.Helper()
	if sv.name == "mem" {
		return s
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return sv.open(t)
}

// TestIncrementalStoreBackends runs the randomized ingestion harness
// with each storage backend holding the committed state: every batch is
// saved with SaveState, as the service's committer does, and the last
// save reopens — with zero matcher calls — byte-identical to the cold
// run, with the usual warm-start savings intact on the way.
func TestIncrementalStoreBackends(t *testing.T) {
	ctx := context.Background()
	for _, ds := range goldenSeeds {
		records, err := cem.GenerateRecords(ds.kind, ds.scale, ds.seed)
		if err != nil {
			t.Fatal(err)
		}
		batches := arrival(rand.New(rand.NewSource(3)), records)
		var union []cem.Record
		for _, b := range batches {
			union = append(union, b...)
		}
		coldPipe, err := cem.NewPipeline(cem.WithScheme(cem.SchemeSMP))
		if err != nil {
			t.Fatal(err)
		}
		cold, err := coldPipe.Run(ctx, union)
		if err != nil {
			t.Fatal(err)
		}
		want := renderMatches(cold.Result)
		for _, sv := range storeVariants(t) {
			t.Run(fmt.Sprintf("%s-%s", ds.kind, sv.name), func(t *testing.T) {
				pipe, err := cem.NewPipeline(cem.WithScheme(cem.SchemeSMP))
				if err != nil {
					t.Fatal(err)
				}
				st := sv.open(t)
				var res *cem.PipelineResult
				for bi, batch := range batches {
					if res, err = pipe.Update(ctx, res, batch); err != nil {
						t.Fatalf("update %d: %v", bi, err)
					}
					if bi > 0 && (!res.WarmStarted || res.Stats.MatcherCalls >= cold.Stats.MatcherCalls) {
						t.Errorf("update %d: warm-started %v with %d matcher calls, cold run needs %d",
							bi, res.WarmStarted, res.Stats.MatcherCalls, cold.Stats.MatcherCalls)
					}
					if err := cem.SaveState(st, res, bi+1); err != nil {
						t.Fatal(err)
					}
				}
				if got := renderMatches(res.Result); got != want {
					t.Errorf("incremental result diverges from cold run: %s", firstDiff(got, want))
				}

				fresh, err := cem.NewPipeline(cem.WithScheme(cem.SchemeSMP))
				if err != nil {
					t.Fatal(err)
				}
				reopened, seq, err := fresh.Reopen(ctx, union, sv.reopen(t, st))
				if err != nil {
					t.Fatal(err)
				}
				if seq != len(batches) {
					t.Errorf("Reopen sequence = %d, want %d", seq, len(batches))
				}
				if got := renderMatches(reopened.Result); got != want {
					t.Errorf("%s store: reopened result diverges from cold run: %s", sv.name, firstDiff(got, want))
				}
				if calls := reopened.Stats.MatcherCalls; calls != 0 {
					t.Errorf("Reopen invoked the matcher: %d calls", calls)
				}
			})
		}
	}
}
