package core_test

import (
	"context"
	"testing"

	"repro/internal/canopy"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/mln"
	"repro/internal/testmodel"
)

// TestInOrderReduceShrinksFirstSweep pins the mechanism behind Fig 3(d)
// (SMP cheaper than NO-MP, §6.2: "messages often reduce the active size
// of the neighborhoods") where it is implemented. On a HEPTH-like cover a
// one-worker SMP run reduces each neighborhood before evaluating the
// next, so its first sweep over the cover decides strictly fewer pairs
// than NO-MP's; a two-worker run maps round 1 against the empty
// round-start snapshot and decides exactly NO-MP's — and then re-runs
// every affected neighborhood, where the one-worker run re-runs only
// those a new pair reached after their evaluation.
func TestInOrderReduceShrinksFirstSweep(t *testing.T) {
	d := datagen.MustGenerate(datagen.HEPTHLike(0.1, 21))
	cover := canopy.BuildCover(d, canopy.DefaultConfig())
	sp := canopy.CandidatePairs(d, cover)
	cands := make([]mln.Candidate, len(sp))
	for i, s := range sp {
		cands[i] = mln.Candidate{Pair: s.Pair, Level: s.Level}
	}
	m, err := mln.New(d, cands, mln.PaperWeights())
	if err != nil {
		t.Fatal(err)
	}
	sweep := func(scheme func(context.Context, core.Config) (*core.Result, error), workers int) (firstSweep, evaluations int) {
		res := mustRun(t, scheme, core.Config{Cover: cover, Matcher: m, Relation: d.Coauthor(), Parallelism: workers})
		for _, a := range res.Stats.ActiveSizes[:cover.Len()] {
			firstSweep += a
		}
		return firstSweep, res.Stats.Evaluations
	}
	nomp, _ := sweep(core.NoMP, 1)
	inOrder, inOrderEvals := sweep(core.SMP, 1)
	snapshot, snapshotEvals := sweep(core.SMP, 2)
	if inOrder >= nomp {
		t.Errorf("one-worker SMP first sweep decides %d pairs, want fewer than NO-MP's %d", inOrder, nomp)
	}
	if snapshot != nomp {
		t.Errorf("two-worker SMP first sweep decides %d pairs, want NO-MP's %d", snapshot, nomp)
	}
	if inOrderEvals >= snapshotEvals {
		t.Errorf("one-worker SMP evaluates %d neighborhoods, want fewer than the snapshot rounds' %d", inOrderEvals, snapshotEvals)
	}
}

// TestParallelStatsAccounting: the round executor still counts every
// neighborhood at least once and records one active size per evaluation.
func TestParallelStatsAccounting(t *testing.T) {
	m, cover, _ := testmodel.PaperExample()
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation(), Parallelism: 3}
	res := mustRun(t, core.SMP, cfg)
	if res.Stats.Evaluations < cover.Len() {
		t.Errorf("evaluations = %d, want >= %d", res.Stats.Evaluations, cover.Len())
	}
	if len(res.Stats.ActiveSizes) != res.Stats.Evaluations {
		t.Errorf("active sizes %d != evaluations %d",
			len(res.Stats.ActiveSizes), res.Stats.Evaluations)
	}
	if res.Stats.MaxRevisits < 1 {
		t.Errorf("max revisits = %d", res.Stats.MaxRevisits)
	}
}

// TestCanceledContext: an already-canceled context aborts every scheme
// before any matcher call, serial and parallel alike.
func TestCanceledContext(t *testing.T) {
	m, cover, _ := testmodel.PaperExample()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, parallelism := range []int{0, 4} {
		cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation(),
			Parallelism: parallelism}
		if _, err := core.NoMP(ctx, cfg); err != context.Canceled {
			t.Errorf("parallelism %d: NoMP err = %v", parallelism, err)
		}
		if _, err := core.SMP(ctx, cfg); err != context.Canceled {
			t.Errorf("parallelism %d: SMP err = %v", parallelism, err)
		}
		if _, err := core.MMP(ctx, cfg); err != context.Canceled {
			t.Errorf("parallelism %d: MMP err = %v", parallelism, err)
		}
	}
	if _, err := core.Full(ctx, core.Config{Cover: cover, Matcher: m}); err != context.Canceled {
		t.Errorf("Full err = %v", err)
	}
	if _, err := core.UB(ctx, core.Config{Cover: cover, Matcher: m}, core.NewPairSet()); err != context.Canceled {
		t.Errorf("UB err = %v", err)
	}
}

// TestProgressCallback: progress events fire once per evaluation with
// monotonically non-decreasing counters and 1-based round numbers at
// every worker count.
func TestProgressCallback(t *testing.T) {
	m, cover, _ := testmodel.PaperExample()
	for _, parallelism := range []int{0, 3} {
		var events []core.ProgressEvent
		cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation(),
			Parallelism: parallelism,
			Progress:    func(e core.ProgressEvent) { events = append(events, e) }}
		res := mustRun(t, core.SMP, cfg)
		if len(events) != res.Stats.Evaluations {
			t.Fatalf("parallelism %d: %d events for %d evaluations",
				parallelism, len(events), res.Stats.Evaluations)
		}
		for i, e := range events {
			if e.Scheme != "SMP" {
				t.Fatalf("event scheme %q", e.Scheme)
			}
			if e.Evaluations != i+1 {
				t.Fatalf("event %d: evaluations = %d", i, e.Evaluations)
			}
			if first := i < cover.Len(); first != (e.Round == 1) {
				t.Fatalf("parallelism %d: event %d reports round %d", parallelism, i, e.Round)
			}
			if i > 0 && e.Matches < events[i-1].Matches {
				t.Fatalf("event %d: match count decreased", i)
			}
		}
	}
}
