package cem_test

// Kill/resume: a run killed after any round boundary and continued from
// its saved state lands on the uninterrupted result, and a saved state
// that does not decode is set aside before a fresh run.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	cem "repro"
	"repro/match"
)

// TestCheckpointKillResumeGolden kills a run saving its state after every
// round boundary r, for every scheme × matcher golden combination with
// round structure on both corpora, and continues it. The kill runs on the
// pool backend and the continuation runs on the sharded backend, so the
// saved state is proven backend-portable.
func TestCheckpointKillResumeGolden(t *testing.T) {
	for _, c := range goldenSeeds {
		for matcher, schemes := range map[string][]cem.Scheme{
			cem.MatcherMLN:   {cem.SchemeNoMP, cem.SchemeSMP, cem.SchemeMMP},
			cem.MatcherRules: {cem.SchemeNoMP, cem.SchemeSMP},
		} {
			for _, scheme := range schemes {
				t.Run(fmt.Sprintf("%s-%s-%s", c.kind, matcher, scheme), func(t *testing.T) {
					for kill := 1; kill < 64; kill++ {
						sc := scenario{corpus: c, matcher: matcher, scheme: scheme, place: "sharded-2", kill: kill}
						if !theorems(t, sc).killed {
							break // the run finished before the kill: every boundary was cut
						}
					}
				})
			}
		}
	}
}

// TestResumeRejectsDifferentMatcher: a state written by one matcher must
// not silently seed another matcher's run — the evidence deltas would
// hybridize the two outputs.
func TestResumeRejectsDifferentMatcher(t *testing.T) {
	exp, err := cem.New(cem.NewDataset(cem.HEPTH, 0.25, 42))
	if err != nil {
		t.Fatal(err)
	}
	st := memStore(t)
	mln, err := exp.Runner(cem.MatcherMLN, cem.WithStateStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mln.Run(context.Background(), cem.SchemeSMP); err != nil {
		t.Fatal(err)
	}
	rules, err := exp.Runner(cem.MatcherRules, cem.WithStateStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cem.Continue(context.Background(), rules, cem.SchemeSMP, st); err == nil {
		t.Error("continuing an mln-written state with the rules matcher succeeded")
	}
}

// TestPipelineResume: a pipeline killed mid-matching continues through
// Pipeline.Reopen and matches an uninterrupted pipeline run exactly
// (blocking is deterministic, so the rebuilt cover equals the one the
// state was written against).
func TestPipelineResume(t *testing.T) {
	records, err := cem.GenerateRecords(cem.HEPTH, 0.25, 42)
	if err != nil {
		t.Fatal(err)
	}
	build := func(st match.Store, extra ...cem.RunnerOption) *cem.Pipeline {
		t.Helper()
		ropts := append([]cem.RunnerOption{cem.WithStateStore(st)}, extra...)
		pipe, err := cem.NewPipeline(
			cem.WithMatcher(cem.MatcherMLN),
			cem.WithScheme(cem.SchemeSMP),
			cem.WithShards(2),
			cem.WithRunnerOptions(ropts...),
		)
		if err != nil {
			t.Fatal(err)
		}
		return pipe
	}

	clean, err := build(memStore(t)).Run(context.Background(), records)
	if err != nil {
		t.Fatal(err)
	}

	st := memStore(t)
	ctx, cancel := context.WithCancel(context.Background())
	killed := build(st, cem.WithProgress(func(e match.ProgressEvent) {
		if e.Round == 1 {
			cancel()
		}
	}))
	if _, err := killed.Run(ctx, records); !errors.Is(err, context.Canceled) {
		t.Fatalf("expected a canceled pipeline run, got %v", err)
	}
	cancel()

	resumed, _, err := build(st).Reopen(context.Background(), records, st)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Matches.Equal(clean.Matches) {
		t.Errorf("resumed pipeline diverges: %d vs %d matches",
			resumed.Matches.Len(), clean.Matches.Len())
	}
}

// memStore opens a memory store, closed when the test ends.
func memStore(t *testing.T) match.Store {
	t.Helper()
	st, err := cem.OpenStore("mem")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// damagedStateRunner returns a runner of scheme over a small corpus that
// saves into a fresh memory store, the state blob a completed run of it
// leaves, and the uninterrupted result.
func damagedStateRunner(t *testing.T, scheme cem.Scheme) (func(match.Store) *cem.Runner, []byte, *cem.Result) {
	t.Helper()
	exp, err := cem.New(cem.NewDataset(cem.HEPTH, 0.05, 42))
	if err != nil {
		t.Fatal(err)
	}
	build := func(st match.Store) *cem.Runner {
		t.Helper()
		r, err := exp.Runner(cem.MatcherMLN, cem.WithStateStore(st))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	st := memStore(t)
	full, err := build(st).Run(context.Background(), scheme)
	if err != nil {
		t.Fatal(err)
	}
	intact, err := st.OpenBlob(match.KindSnapshot, "latest")
	if err != nil {
		t.Fatal(err)
	}
	return build, intact, full
}

// resumeOverDamage continues scheme from a store whose state blob is
// damaged: the blob must be set aside as latest.corrupt and the run start
// fresh, landing on the uninterrupted result want.
func resumeOverDamage(t *testing.T, build func(match.Store) *cem.Runner, scheme cem.Scheme, damaged []byte, what string, want *cem.Result) {
	t.Helper()
	st := memStore(t)
	if err := st.SaveBlob(match.KindSnapshot, "latest", damaged); err != nil {
		t.Fatal(err)
	}
	resumed, err := cem.Continue(context.Background(), build(st), scheme, st)
	if err != nil {
		t.Fatalf("%s: resume over %s: %v", scheme, what, err)
	}
	if aside, err := st.OpenBlob(match.KindSnapshot, "latest.corrupt"); err != nil || !bytes.Equal(aside, damaged) {
		t.Fatalf("%s: %s not set aside: %v", scheme, what, err)
	}
	if !resumed.Matches.Equal(want.Matches) {
		t.Fatalf("%s: resume over %s reached %d matches, the uninterrupted run has %d",
			scheme, what, resumed.Matches.Len(), want.Matches.Len())
	}
}

// TestResumeRefusesJSONRecord: the only codec is binary, so a state in
// the JSON envelope older builds could write (now only a hand edit) is an
// unreadable record like any other: a resume sets it aside and runs fresh
// to the uninterrupted result.
func TestResumeRefusesJSONRecord(t *testing.T) {
	build, _, full := damagedStateRunner(t, cem.SchemeMMP)
	json := []byte(`{"cemw":1,"type":3,"msg":{"scheme":"MMP","round":1}}`)
	resumeOverDamage(t, build, cem.SchemeMMP, json, "a JSON state", full)
}

// TestCheckpointTruncationAtEveryByte: every save is durable, so only
// damage from outside can cut a state blob. For every prefix a resume
// must set the blob aside and run fresh, landing on the uninterrupted
// run's result.
func TestCheckpointTruncationAtEveryByte(t *testing.T) {
	for _, scheme := range []cem.Scheme{cem.SchemeSMP, cem.SchemeMMP} {
		build, intact, full := damagedStateRunner(t, scheme)
		for cut := 0; cut < len(intact); cut++ {
			resumeOverDamage(t, build, scheme, intact[:cut], fmt.Sprintf("a state cut at byte %d/%d", cut, len(intact)), full)
		}
	}
}
