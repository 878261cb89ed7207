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
// list is the only allocation (measured 1) — and in the PairSet form,
// which adds the result set (measured 5). The pre-engine cost was ~100
// allocations per call on this fixture.
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
	entities := env.cover.Sets[largestNeighborhood(env.cover)]
	ev := core.NewEvidence(m.CandidateTable())
	m.MatchIDs(entities, ev, nil) // warm the pools
	for _, form := range []struct {
		name      string
		call      func()
		maxAllocs float64
	}{
		{"MatchIDs", func() { m.MatchIDs(entities, ev, nil) }, 4},
		{"Match", func() { m.Match(entities, nil, nil) }, 12},
	} {
		if avg := testing.AllocsPerRun(50, form.call); avg > form.maxAllocs {
			t.Errorf("warm %s allocates %.1f times per call, want <= %.0f", form.name, avg, form.maxAllocs)
		}
	}
}

// TestMaximalMessagesAllocs bounds one warm COMPUTEMAXIMAL run — the
// inner loop of every MMP evaluation (the pre-engine cost was in the
// hundreds on this fixture).
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
	entities := env.cover.Sets[largestNeighborhood(env.cover)]
	mPlus := core.NewEvidence(m.CandidateTable())
	base := m.MatchIDs(entities, mPlus, nil)
	msgs, _ := m.MaximalMessagesIDs(entities, mPlus, nil, base)
	avg := testing.AllocsPerRun(20, func() {
		m.MaximalMessagesIDs(entities, mPlus, nil, base)
	})
	// Every returned message is one necessarily-escaping allocation; the
	// bound allows those plus the msgs spine and pool variance (measured
	// +1 on a memo hit, +8 recomputing).
	maxAllocs := float64(len(msgs) + 10)
	if avg > maxAllocs {
		t.Errorf("warm MaximalMessagesIDs allocates %.1f times per call for %d messages, want <= %.0f",
			avg, len(msgs), maxAllocs)
	}
}
