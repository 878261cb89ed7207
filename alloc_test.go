package cem_test

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"

	cem "repro"
)

// TestSMPRunAllocs bounds the allocations of one serial SMP run over the
// HEPTH 0.25 seed — the scheme benchmark's configuration. The dense-ID
// matcher state brought this from ~24k allocations to ~2k, dense evidence
// through the engine to ~300 (one id list per evaluation, no match-set
// maps); the bound catches any change that re-introduces per-evaluation
// churn (map-built scopes, unpooled solvers, per-call model rebuilding,
// hashed evidence) while leaving headroom for legitimate drift.
func TestSMPRunAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation regression bound; skipped in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	exp, err := cem.New(cem.NewDataset(cem.HEPTH, 0.25, 42))
	if err != nil {
		t.Fatal(err)
	}
	runner, err := exp.Runner(cem.MatcherMLN)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := runner.Run(ctx, cem.SchemeSMP); err != nil {
		t.Fatal(err) // also warms the matcher pools
	}
	avg := testing.AllocsPerRun(3, func() {
		if _, err := runner.Run(ctx, cem.SchemeSMP); err != nil {
			t.Fatal(err)
		}
	})
	const maxAllocs = 1000
	if avg > maxAllocs {
		t.Errorf("serial SMP run allocates %.0f times, want <= %d", avg, maxAllocs)
	}
}

// TestColdRunAllocBytes bounds the bytes one cold Pipeline.Run allocates
// (seed 42, one blocking shard, one matching worker, after a first run has
// warmed the matcher pools) on the people-cold and dblp-cold benchmark
// workloads' corpora: people-like 0.7 under the compiled people.rules
// program with SMP, and DBLP-like 1 under the MLN matcher with MMP. Most of
// a cold run's bytes are blocking's tables — the dataset, the name table,
// the q-gram index and the cover — each sized from a count of what it
// keeps. The bounds are the bytes measured with Go 1.24 (1 381 496 and
// 2 980 264) plus 10 %, so a table that goes back to growing by append or
// by rehash fails here.
func TestColdRunAllocBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation regression bound; skipped in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates allocations")
	}
	for _, c := range []struct {
		name    string
		kind    cem.DatasetKind
		scale   float64
		matcher string
		scheme  cem.Scheme
		bound   uint64 // bytes
	}{
		{"people", cem.People, 0.7, loadProgram(t, filepath.Join("testdata", "rules", "people.rules")), cem.SchemeSMP, 1_520_000},
		{"dblp", cem.DBLP, 1, cem.MatcherMLN, cem.SchemeMMP, 3_280_000},
	} {
		t.Run(c.name, func(t *testing.T) {
			records, err := cem.GenerateRecords(c.kind, c.scale, 42)
			if err != nil {
				t.Fatal(err)
			}
			pipe, err := cem.NewPipeline(cem.WithMatcher(c.matcher), cem.WithScheme(c.scheme),
				cem.WithShards(1), cem.WithRunnerOptions(cem.WithParallelism(1)))
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			if _, err := pipe.Run(ctx, records); err != nil {
				t.Fatal(err)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if _, err := pipe.Run(ctx, records); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			got := m1.TotalAlloc - m0.TotalAlloc
			t.Logf("cold run allocates %d bytes", got)
			if got > c.bound {
				t.Errorf("cold run allocates %d bytes, want <= %d", got, c.bound)
			}
		})
	}
}
