package mln

import (
	"testing"

	"repro/internal/core"
)

// Allocation regression bounds for the matching hot path. SMP/MMP
// multiply the per-invocation cost by Evaluations × rounds, so a future
// change that silently re-introduces per-call map building or solver
// allocations shows up here long before it shows up on a profile.

// TestMatchAllocs bounds the allocations of one warm match on a prepared
// cover neighborhood, in the id form the engine calls — the returned id
// list is the only allocation (measured 1) — and of the same entities in
// the PairSet form, which scopes them afresh as a one-set cover and adds
// the result set (measured 7). The pre-engine cost was ~100 allocations
// per call on this fixture.
func TestMatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	env, cands := benchGround(t)
	m, err := New(env.d, cands, PaperWeights())
	if err != nil {
		t.Fatal(err)
	}
	m.PrepareCover(env.cover)
	nb := int32(largestNeighborhood(env.cover))
	entities := env.cover.Sets[nb]
	ev := core.NewEvidence(m.CandidateTable())
	m.MatchIDs(env.cover, nb, ev, nil) // warm the pools
	for _, form := range []struct {
		name      string
		call      func()
		maxAllocs float64
	}{
		{"MatchIDs", func() { m.MatchIDs(env.cover, nb, ev, nil) }, 4},
		{"Match", func() { m.Match(entities, nil, nil) }, 12},
	} {
		if avg := testing.AllocsPerRun(50, form.call); avg > form.maxAllocs {
			t.Errorf("warm %s allocates %.1f times per call, want <= %.0f", form.name, avg, form.maxAllocs)
		}
	}
}

// TestMaximalMessagesAllocs bounds one warm fused MMP evaluation —
// MatchMessagesIDs, the inner loop of every MMP round, which solves and
// probes afresh on every call. The messages go to a reused CSR, so the
// returned id list is the only allocation (measured 1).
func TestMaximalMessagesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	env, cands := benchGround(t)
	m, err := New(env.d, cands, PaperWeights())
	if err != nil {
		t.Fatal(err)
	}
	m.PrepareCover(env.cover)
	nb := int32(largestNeighborhood(env.cover))
	mPlus := core.NewEvidence(m.CandidateTable())
	var msgs core.MessageIDs
	call := func() {
		msgs.Reset()
		m.MatchMessagesIDs(env.cover, nb, mPlus, nil, &msgs)
	}
	call() // warm the pools
	if msgs.Len() == 0 {
		t.Fatal("fixture derives no maximal messages")
	}
	if avg := testing.AllocsPerRun(20, call); avg > 1 {
		t.Errorf("warm MatchMessagesIDs allocates %.1f times per call for %d messages, want <= 1", avg, msgs.Len())
	}
}
