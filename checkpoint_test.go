package cem_test

// Checkpoint/resume over the golden corpora: a run killed after any round
// boundary and resumed from its on-disk trail lands on the golden fixture.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	cem "repro"
	"repro/match"
)

// TestCheckpointKillResumeGolden kills a checkpointed run after every
// round boundary r, for every scheme × matcher golden combination with
// round structure on both corpora, and resumes it. The kill runs on the
// pool backend and the resume continues the same trail on the sharded
// backend, so the trail format is proven backend-portable.
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

// TestResumeWithoutCheckpointDir: Resume is only meaningful on a
// checkpoint-configured runner, and only for round-based schemes.
func TestResumeWithoutCheckpointDir(t *testing.T) {
	exp, err := cem.New(cem.NewDataset(cem.HEPTH, 0.25, 42))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := exp.Runner(cem.MatcherMLN)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Resume(context.Background(), cem.SchemeSMP); err == nil {
		t.Error("Resume without WithCheckpointDir succeeded")
	}
	ck, err := exp.Runner(cem.MatcherMLN, cem.WithCheckpointDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ck.Resume(context.Background(), cem.SchemeFull); err == nil {
		t.Error("Resume of FULL (no round structure) succeeded")
	}
}

// TestResumeRejectsDifferentMatcher: a trail written by one matcher must
// not silently seed another matcher's run — the evidence deltas would
// hybridize the two outputs.
func TestResumeRejectsDifferentMatcher(t *testing.T) {
	exp, err := cem.New(cem.NewDataset(cem.HEPTH, 0.25, 42))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mln, err := exp.Runner(cem.MatcherMLN, cem.WithCheckpointDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mln.Run(context.Background(), cem.SchemeSMP); err != nil {
		t.Fatal(err)
	}
	rules, err := exp.Runner(cem.MatcherRules, cem.WithCheckpointDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rules.Resume(context.Background(), cem.SchemeSMP); err == nil {
		t.Error("resuming an mln-written trail with the rules matcher succeeded")
	}
}

// TestPipelineResume: a pipeline killed mid-matching resumes through
// Pipeline.Resume and matches an uninterrupted pipeline run exactly
// (blocking is deterministic, so the rebuilt cover equals the one the
// trail was written against).
func TestPipelineResume(t *testing.T) {
	records, err := cem.GenerateRecords(cem.HEPTH, 0.25, 42)
	if err != nil {
		t.Fatal(err)
	}
	build := func(dir string, extra ...cem.RunnerOption) *cem.Pipeline {
		t.Helper()
		ropts := append([]cem.RunnerOption{cem.WithCheckpointDir(dir)}, extra...)
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

	clean, err := build(t.TempDir()).Run(context.Background(), records)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	killed := build(dir, cem.WithProgress(func(e match.ProgressEvent) {
		if e.Round == 1 {
			cancel()
		}
	}))
	if _, err := killed.Run(ctx, records); !errors.Is(err, context.Canceled) {
		t.Fatalf("expected a canceled pipeline run, got %v", err)
	}
	cancel()

	resumed, err := build(dir).Resume(context.Background(), records)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Matches.Equal(clean.Matches) {
		t.Errorf("resumed pipeline diverges: %d vs %d matches",
			resumed.Matches.Len(), clean.Matches.Len())
	}
}
