package cem_test

import (
	"context"
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
