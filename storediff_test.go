package cem_test

// Differential harness for the storage backends on the incremental
// ingestion path (the batch runs are store rows of the conformance
// matrix): batched arrivals over the "mem" and the "disk" store must
// land on the cold run's exact result.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	cem "repro"
	"repro/match"
)

// storeVariant pairs a backend name with a runner option opening it.
type storeVariant struct {
	name string
	opt  cem.RunnerOption
}

func storeVariants(t *testing.T) []storeVariant {
	t.Helper()
	return []storeVariant{
		{"mem", cem.WithStore("mem")},
		{"disk", cem.WithStore("disk", cem.WithStoreDir(t.TempDir()))},
	}
}

// evidenceKeys drains a store's full evidence stream in key order.
func evidenceKeys(t *testing.T, s match.Store) []uint64 {
	t.Helper()
	var keys []uint64
	if err := s.EvidenceRange(0, ^uint64(0), func(k uint64) bool {
		keys = append(keys, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return keys
}

// TestIncrementalStoreBackends runs the randomized ingestion harness
// with each storage backend underneath the pipeline: the final state
// after batched arrivals must be byte-identical to the cold run, with
// the usual warm-start savings intact.
func TestIncrementalStoreBackends(t *testing.T) {
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
		cold, err := coldPipe.Run(context.Background(), union)
		if err != nil {
			t.Fatal(err)
		}
		want := renderMatches(cold.Result)
		for _, sv := range storeVariants(t) {
			t.Run(fmt.Sprintf("%s-%s", ds.kind, sv.name), func(t *testing.T) {
				pipe, err := cem.NewPipeline(
					cem.WithScheme(cem.SchemeSMP),
					cem.WithRunnerOptions(sv.opt),
				)
				if err != nil {
					t.Fatal(err)
				}
				res := ingest(t, pipe, batches, cold)
				if got := renderMatches(res.Result); got != want {
					t.Errorf("%s store: incremental result diverges from cold run: %s",
						sv.name, firstDiff(got, want))
				}
			})
		}
	}
}
