package cem_test

// Tests for the redesigned public API: the matcher registry, the
// context-aware Runner, and the parallel executor. Everything here uses
// ONLY the public packages (repro and repro/match) — exactly what a
// third-party matcher author sees.

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	cem "repro"
	"repro/match"
)

// strongOnly is a MatcherFunc-style black box registered through the
// public API: it matches exactly the strong-similarity candidates (plus
// the positive evidence it is handed, as the Matcher contract requires).
func strongOnly(mc cem.MatcherContext) (match.Matcher, error) {
	strong := match.NewPairSet()
	all := make([]match.Pair, 0, len(mc.Candidates))
	for _, c := range mc.Candidates {
		all = append(all, c.Pair)
		if c.Level == match.LevelStrong {
			strong.Add(c.Pair)
		}
	}
	inScope := func(entities []match.EntityID, p match.Pair) bool {
		a, b := false, false
		for _, e := range entities {
			a = a || e == p.A
			b = b || e == p.B
		}
		return a && b
	}
	return match.MatcherFunc{
		MatchFn: func(entities []match.EntityID, pos, neg match.PairSet) match.PairSet {
			out := match.NewPairSet()
			for p := range strong.All() {
				if inScope(entities, p) && !neg.Has(p) {
					out.Add(p)
				}
			}
			for p := range pos.All() {
				if inScope(entities, p) {
					out.Add(p)
				}
			}
			return out
		},
		CandidatesFn: func(entities []match.EntityID) []match.Pair {
			var out []match.Pair
			for _, p := range all {
				if inScope(entities, p) {
					out = append(out, p)
				}
			}
			return out
		},
	}, nil
}

func init() {
	cem.RegisterMatcher("strong-only", strongOnly)
}

// TestCustomMatcherThroughPublicAPI: a registered third-party matcher is
// listed, instantiates lazily, and runs under NO-MP, SMP and FULL with
// the framework's guarantees (SMP == FULL for a well-behaved Type-I
// matcher over a total cover).
func TestCustomMatcherThroughPublicAPI(t *testing.T) {
	names := cem.Matchers()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Matchers() not sorted: %v", names)
	}
	found := map[string]bool{}
	for _, n := range names {
		found[n] = true
	}
	for _, want := range []string{cem.MatcherMLN, cem.MatcherRules, "strong-only"} {
		if !found[want] {
			t.Fatalf("Matchers() = %v, missing %q", names, want)
		}
	}

	exp, err := cem.New(cem.NewDataset(cem.DBLP, 0.2, 5))
	if err != nil {
		t.Fatal(err)
	}
	runner, err := exp.Runner("strong-only")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	nomp, err := runner.Run(ctx, cem.SchemeNoMP)
	if err != nil {
		t.Fatal(err)
	}
	smp, err := runner.Run(ctx, cem.SchemeSMP)
	if err != nil {
		t.Fatal(err)
	}
	full, err := runner.Run(ctx, cem.SchemeFull)
	if err != nil {
		t.Fatal(err)
	}
	if nomp.Matches.Len() == 0 {
		t.Error("custom matcher found nothing — dataset should contain strong pairs")
	}
	if !nomp.Matches.Subset(smp.Matches) {
		t.Error("SMP lost NO-MP matches")
	}
	if !smp.Matches.Equal(full.Matches) {
		t.Errorf("SMP (%d) != FULL (%d) for a well-behaved Type-I matcher",
			smp.Matches.Len(), full.Matches.Len())
	}
	if nomp.Matcher != "strong-only" {
		t.Errorf("result matcher = %q", nomp.Matcher)
	}
	// MMP needs a Type-II matcher and must refuse this one.
	if _, err := runner.Run(ctx, cem.SchemeMMP); err == nil {
		t.Error("MMP accepted a Type-I custom matcher")
	}
}

// TestParallelNoMPIdenticalToSerial is the acceptance check: on the
// HEPTH and DBLP seeds, parallel NO-MP produces byte-identical match
// sets to serial NO-MP (and parallel SMP/MMP agree too).
func TestParallelNoMPIdenticalToSerial(t *testing.T) {
	for _, kind := range []cem.DatasetKind{cem.HEPTH, cem.DBLP} {
		exp, err := cem.New(cem.NewDataset(kind, 0.25, 42))
		if err != nil {
			t.Fatal(err)
		}
		serial, err := exp.Runner(cem.MatcherMLN)
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := exp.Runner(cem.MatcherMLN,
			cem.WithParallelism(runtime.NumCPU()))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for _, s := range []cem.Scheme{cem.SchemeNoMP, cem.SchemeSMP, cem.SchemeMMP} {
			want, err := serial.Run(ctx, s)
			if err != nil {
				t.Fatal(err)
			}
			got, err := parallel.Run(ctx, s)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Matches.Equal(want.Matches) {
				t.Errorf("%s/%s: parallel diverges from serial: %d vs %d matches",
					kind, s, got.Matches.Len(), want.Matches.Len())
			}
			if !reflect.DeepEqual(got.Matches.Sorted(), want.Matches.Sorted()) {
				t.Errorf("%s/%s: sorted match lists differ", kind, s)
			}
		}
	}
}

// TestContextCancellationAbortsMMP: canceling the context promptly
// aborts a long MMP run with ctx.Err(). The cancel lands after the first
// neighborhood evaluation, so the run is mid-flight however fast it is.
func TestContextCancellationAbortsMMP(t *testing.T) {
	exp, err := cem.New(cem.NewDataset(cem.HEPTH, 0.5, 42))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runner, err := exp.Runner(cem.MatcherMLN, cem.WithProgress(func(match.ProgressEvent) { cancel() }))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := runner.Run(ctx, cem.SchemeMMP)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v (result %v), want context.Canceled", err, res)
	}
	// The run would take far longer than this to finish; the bound is
	// generous so only a genuinely ignored cancellation fails.
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v — not prompt", elapsed)
	}
	// A deadline already in the past aborts before any work, parallel
	// included.
	deadCtx, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	par, err := exp.Runner(cem.MatcherMLN, cem.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := par.Run(deadCtx, cem.SchemeMMP); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline err = %v", err)
	}
}

// TestRunnerOptions exercises WithProgress, WithTransitiveClosure and
// WithNegativeEvidence end to end.
func TestRunnerOptions(t *testing.T) {
	exp, err := cem.New(cem.NewDataset(cem.DBLP, 0.2, 11))
	if err != nil {
		t.Fatal(err)
	}
	var events []match.ProgressEvent
	runner, err := exp.Runner(cem.MatcherRules,
		cem.WithTransitiveClosure(),
		cem.WithProgress(func(e match.ProgressEvent) { events = append(events, e) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Run(context.Background(), cem.SchemeSMP)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Closed {
		t.Error("result not marked closed")
	}
	if !exp.TransitiveClosure(res.Matches).Equal(res.Matches) {
		t.Error("closed result is not transitively closed")
	}
	if res.Stats.Evaluations == 0 {
		t.Errorf("run stats: %+v", res.Stats)
	}
	if len(events) != res.Stats.Evaluations {
		t.Errorf("%d progress events for %d evaluations", len(events), res.Stats.Evaluations)
	}

	// Negative evidence suppresses the negated pairs in the output.
	plain, err := exp.Runner(cem.MatcherRules)
	if err != nil {
		t.Fatal(err)
	}
	base, err := plain.Run(context.Background(), cem.SchemeSMP)
	if err != nil {
		t.Fatal(err)
	}
	if base.Matches.Len() == 0 {
		t.Skip("no matches to negate at this scale")
	}
	var victim match.Pair
	for p := range base.Matches.All() {
		victim = p
		break
	}
	negRunner, err := exp.Runner(cem.MatcherRules,
		cem.WithNegativeEvidence(match.NewPairSet(victim)))
	if err != nil {
		t.Fatal(err)
	}
	negRes, err := negRunner.Run(context.Background(), cem.SchemeSMP)
	if err != nil {
		t.Fatal(err)
	}
	if negRes.Matches.Has(victim) {
		t.Error("negated pair still matched")
	}
}

// TestTransitiveClosureSkipsSingletons: the closure only materializes
// components that contain a match — no singleton blow-up — and still
// agrees with pairwise expansion of the matched components.
func TestTransitiveClosureSkipsSingletons(t *testing.T) {
	exp, err := cem.New(cem.NewDataset(cem.DBLP, 0.2, 3))
	if err != nil {
		t.Fatal(err)
	}
	chain := match.NewPairSet(
		match.MakePair(0, 1), match.MakePair(1, 2), match.MakePair(5, 6))
	closed := exp.TransitiveClosure(chain)
	want := match.NewPairSet(
		match.MakePair(0, 1), match.MakePair(1, 2), match.MakePair(0, 2),
		match.MakePair(5, 6))
	if !closed.Equal(want) {
		t.Errorf("closure = %v, want %v", closed.Sorted(), want.Sorted())
	}
	if !exp.TransitiveClosure(match.NewPairSet()).Equal(match.NewPairSet()) {
		t.Error("closure of the empty set must be empty")
	}
}

// TestRegisterMatcherPanics: the registry rejects bad registrations.
func TestRegisterMatcherPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	dummy := func(cem.MatcherContext) (match.Matcher, error) { return match.MatcherFunc{}, nil }
	mustPanic("empty name", func() { cem.RegisterMatcher("", dummy) })
	mustPanic("nil factory", func() { cem.RegisterMatcher("nil-factory", nil) })
	mustPanic("duplicate", func() { cem.RegisterMatcher("strong-only", dummy) })
}
