package cem_test

// The incremental execution path: records arrive in seeded random order
// and random batch splits and are ingested with Pipeline.Update (delta
// blocking + warm-started matching). The differentials are runners over
// the theorem checker: the result after the final batch must equal a cold
// Pipeline.Run over the union, for every scheme, on the pool and the
// sharded backend alike, while every trailing batch spends strictly fewer
// matcher calls than the cold run — re-activating only the neighborhoods
// an arrival touches reaches the same fixpoint as re-running everything.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"

	cem "repro"
	"repro/internal/bib"
	"repro/internal/canopy"
	"repro/match"
)

// affectedByDeltaOld is the warm-start seed computation as it stood before
// the candidate table — a hash set of every old candidate, a map of seen
// cover ids — kept verbatim as the oracle of cem.AffectedByDelta.
func affectedByDeltaOld(exp, old *cem.Experiment, delta *canopy.Delta) []int32 {
	rel := exp.Dataset.Coauthor()
	oldCands := match.NewPairSet()
	for _, c := range old.Candidates {
		oldCands.Add(c.Pair)
	}
	var newPairs []match.Pair
	for _, c := range exp.Candidates {
		if !oldCands.Has(c.Pair) {
			newPairs = append(newPairs, c.Pair)
		}
	}
	seen := map[int32]bool{}
	var out []int32
	for _, ids := range [][]int32{
		delta.Changed,
		exp.Cover.AffectedEntities(delta.NewEntities, rel),
		exp.Cover.Affected(newPairs, rel),
	} {
		for _, id := range ids {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// affectedOracle follows one Update chain under the default blocking
// configuration with a blocking index of its own, which yields the delta
// each Update saw, and holds the warm-start seed of every batch to the old
// computation and the candidate table, carried or not, to the enumeration
// of the whole cover.
type affectedOracle struct {
	index *canopy.Index
	prior *cem.PipelineResult
}

func (o *affectedOracle) check(t *testing.T, res *cem.PipelineResult) {
	t.Helper()
	if want := canopy.CandidatePairs(res.Experiment.Dataset, res.Experiment.Cover); !slices.Equal(res.Experiment.Candidates, want) {
		t.Errorf("after %d records: %d candidates, enumerating the cover gives %d", res.Records, len(res.Experiment.Candidates), len(want))
	}
	if o.index == nil {
		var err error
		if o.index, err = canopy.NewIndex(cem.DefaultOptions().Canopy); err != nil {
			t.Fatal(err)
		}
	}
	_, delta, err := o.index.Add(context.Background(), res.Experiment.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	if o.prior != nil {
		got := cem.AffectedByDelta(res.Experiment, o.prior.Experiment, delta)
		if want := affectedByDeltaOld(res.Experiment, o.prior.Experiment, delta); !slices.Equal(got, want) {
			t.Errorf("after %d records: warm-start seed %v, the old computation gives %v", res.Records, got, want)
		}
	}
	o.prior = res
}

// ingest folds Update over an arrival sequence, holds every batch to the
// affected-set oracle, and requires every trailing batch to warm-start
// (the arrival splits used here keep the cover additive).
func ingest(t *testing.T, pipe *cem.Pipeline, batches [][]cem.Record) *cem.PipelineResult {
	t.Helper()
	var res *cem.PipelineResult
	var err error
	var oracle affectedOracle
	for bi, batch := range batches {
		res, err = pipe.Update(context.Background(), res, batch)
		if err != nil {
			t.Fatalf("update %d: %v", bi, err)
		}
		oracle.check(t, res)
		if bi > 0 && !res.WarmStarted {
			t.Errorf("update %d (%d records) did not warm-start (forced rerun: %v)",
				bi, len(batch), res.ForcedRerun)
		}
	}
	return res
}

// TestIncrementalMatchesColdRun: 5 arrival seeds × both corpora ×
// {nomp, smp, mmp} × {pool, sharded K=4}.
func TestIncrementalMatchesColdRun(t *testing.T) {
	for _, c := range goldenSeeds {
		for seed := int64(0); seed < 5; seed++ {
			for _, scheme := range []cem.Scheme{cem.SchemeNoMP, cem.SchemeSMP, cem.SchemeMMP} {
				sc := scenario{corpus: c, matcher: cem.MatcherMLN, scheme: scheme, split: split{n: -1, seed: seed}, warm: "grid"}
				sc.cold(t)
				for _, backend := range []struct{ name, place string }{{"pool", "pool-1"}, {"sharded4", "sharded-4"}} {
					t.Run(fmt.Sprintf("%s-seed%d-%s-%s", c.kind, seed, scheme, backend.name), func(t *testing.T) {
						t.Parallel()
						sc := sc
						sc.place = backend.place
						theorems(t, sc)
					})
				}
			}
		}
	}
}

// TestIncrementalPrefixesMatchColdRuns sharpens the harness on one arrival
// per corpus: after EVERY batch the incremental state equals a cold run
// over exactly the records ingested so far.
func TestIncrementalPrefixesMatchColdRuns(t *testing.T) {
	for _, c := range goldenSeeds {
		sc := scenario{corpus: c, matcher: cem.MatcherMLN, scheme: cem.SchemeSMP, split: split{n: -1, seed: 11}}
		for k := range sc.batches(t) {
			sc.split.upto = k + 1
			theorems(t, sc)
		}
	}
}

// TestIncrementalRulesMatcher runs the harness for the Type-I rules
// matcher (NO-MP and SMP), with and without the end-of-run transitive
// closure: the closure must compose with warm starts (continuations are
// seeded from the raw pre-closure evidence).
func TestIncrementalRulesMatcher(t *testing.T) {
	for _, c := range goldenSeeds {
		for _, scheme := range []cem.Scheme{cem.SchemeNoMP, cem.SchemeSMP} {
			for _, closure := range []bool{false, true} {
				theorems(t, scenario{corpus: c, matcher: cem.MatcherRules, scheme: scheme, closure: closure,
					split: split{n: -1, seed: 2}, warm: "pool-1"})
			}
		}
	}
}

// TestIncrementalStoreBackends runs the randomized ingestion harness with
// each storage backend holding the committed state: every batch is saved
// with SaveState, as the service's committer does, and the last save
// reopens — at the last batch's sequence, with zero matcher calls — to the
// cold run's exact result, with the usual warm-start savings on the way.
func TestIncrementalStoreBackends(t *testing.T) {
	for _, c := range goldenSeeds {
		for _, store := range []string{"mem", "disk"} {
			t.Run(fmt.Sprintf("%s-%s", c.kind, store), func(t *testing.T) {
				theorems(t, scenario{corpus: c, matcher: cem.MatcherMLN, scheme: cem.SchemeSMP, store: store,
					split: split{n: -1, seed: 3}, warm: "pool-1"})
			})
		}
	}
}

// streamBatches is the pinned 3-batch arrival of the streaming golden
// fixtures: shuffle seed 7, cuts at 60% and 80% (a shape on which every
// corpus stays additive, so the fixtures pin the warm path, not the
// fallback).
func streamBatches(records []cem.Record) [][]cem.Record {
	rng := rand.New(rand.NewSource(7))
	recs := append([]cem.Record(nil), records...)
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	n := len(recs)
	return [][]cem.Record{recs[: n*6/10 : n*6/10], recs[n*6/10 : n*8/10], recs[n*8/10:]}
}

// TestGoldenStreamingFixtures pins the streaming path's exact output:
// 2 corpora × {smp, mmp} × the pinned 3-batch arrival, committed under
// testdata/golden/stream-*.golden and refreshed with -update like the
// other fixtures.
func TestGoldenStreamingFixtures(t *testing.T) {
	for _, ds := range goldenSeeds {
		records, err := cem.GenerateRecords(ds.kind, ds.scale, ds.seed)
		if err != nil {
			t.Fatal(err)
		}
		batches := streamBatches(records)
		for _, scheme := range []cem.Scheme{cem.SchemeSMP, cem.SchemeMMP} {
			name := fmt.Sprintf("stream-%s-%s-%s", ds.kind, cem.MatcherMLN, scheme)
			t.Run(name, func(t *testing.T) {
				pipe, err := cem.NewPipeline(cem.WithScheme(scheme))
				if err != nil {
					t.Fatal(err)
				}
				res := ingest(t, pipe, batches)
				got := renderMatches(res.Result)
				path := filepath.Join("testdata", "golden", name+".golden")
				if *updateGolden {
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing fixture %s (run `go test -run TestGoldenStreamingFixtures -update`): %v", path, err)
				}
				if got != string(want) {
					t.Errorf("streaming match set diverges from %s: %s", path, firstDiff(got, string(want)))
				}
			})
		}
	}
}

// TestUpdateUnlabeledStream: ingestion of unlabeled records must skip
// the metrics without failing — labels are an evaluation nicety, not an
// ingestion requirement.
func TestUpdateUnlabeledStream(t *testing.T) {
	records, err := cem.GenerateRecords(cem.DBLP, 0.25, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Strip every label (and keep groups) by re-wrapping the records.
	stripped := make([]cem.Record, len(records))
	for i, r := range records {
		b := r.(cem.BasicRecord)
		stripped[i] = cem.BasicRecord{Key: b.Key, Group: b.Group, Gold: -1}
	}
	pipe, err := cem.NewPipeline(cem.WithScheme(cem.SchemeSMP))
	if err != nil {
		t.Fatal(err)
	}
	res := ingest(t, pipe, streamBatches(stripped))
	if res.Labeled {
		t.Error("unlabeled stream reported Labeled")
	}
	if res.Report != nil || res.BCubed != nil {
		t.Error("unlabeled stream computed metrics")
	}
	if res.Matches.Len() == 0 {
		t.Error("unlabeled stream produced no matches at all")
	}

	// The labels must not influence matching: the unlabeled stream's
	// match set equals the labeled one's.
	labeled := ingest(t, pipe, streamBatches(records))
	if !res.Matches.Equal(labeled.Matches) {
		t.Error("labels changed the match set")
	}
	if labeled.Report == nil || labeled.BCubed == nil {
		t.Error("fully labeled stream skipped metrics")
	}
}

// TestUpdateWarmTrailResume: an Update killed mid-continuation leaves a
// resumable checkpoint trail (the warm seed is its round-1 record);
// Pipeline.Resume over the union records must finish it and land on the
// uninterrupted Update's exact result.
func TestUpdateWarmTrailResume(t *testing.T) {
	records, err := cem.GenerateRecords(cem.HEPTH, 0.25, 42)
	if err != nil {
		t.Fatal(err)
	}
	batches := streamBatches(records)
	union := append(append(append([]cem.Record(nil), batches[0]...), batches[1]...), batches[2]...)

	build := func(dir string, extra ...cem.RunnerOption) *cem.Pipeline {
		t.Helper()
		ropts := append([]cem.RunnerOption{cem.WithCheckpointDir(dir)}, extra...)
		pipe, err := cem.NewPipeline(
			cem.WithScheme(cem.SchemeSMP),
			cem.WithRunnerOptions(ropts...),
		)
		if err != nil {
			t.Fatal(err)
		}
		return pipe
	}

	// Uninterrupted reference: base + one warm update.
	clean, err := build(t.TempDir()).Update(context.Background(), nil, batches[0])
	if err != nil {
		t.Fatal(err)
	}
	cleanRes, err := build(t.TempDir()).Update(context.Background(), clean,
		append(append([]cem.Record(nil), batches[1]...), batches[2]...))
	if err != nil {
		t.Fatal(err)
	}
	if !cleanRes.WarmStarted {
		t.Fatal("reference update did not warm-start")
	}

	// Killed continuation: cancel at the first progress event past the
	// seed round, leaving the synthetic round-1 record (plus possibly
	// round 2) on disk.
	dir := t.TempDir()
	base, err := build(dir).Update(context.Background(), nil, batches[0])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	killed := build(dir, cem.WithProgress(func(e match.ProgressEvent) {
		if e.Round >= 2 {
			cancel()
		}
	}))
	_, err = killed.Update(ctx, base,
		append(append([]cem.Record(nil), batches[1]...), batches[2]...))
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected the killed update to report cancellation, got %v", err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "round-*.ckpt")); len(files) == 0 {
		t.Fatal("killed warm update left no checkpoint trail")
	}

	resumed, err := build(dir).Resume(context.Background(), union)
	if err != nil {
		t.Fatalf("resuming the warm trail: %v", err)
	}
	if got, want := renderMatches(resumed.Result), renderMatches(cleanRes.Result); got != want {
		t.Errorf("resumed warm trail diverges from uninterrupted update: %s", firstDiff(got, want))
	}
}

// TestUpdateStaleTrailRejected: a checkpoint trail written before a
// delta fingerprints the pre-delta cover; once ingestion changed the
// cover, resuming that trail must be refused, not silently replayed
// against the wrong neighborhoods.
func TestUpdateStaleTrailRejected(t *testing.T) {
	records, err := cem.GenerateRecords(cem.DBLP, 0.25, 42)
	if err != nil {
		t.Fatal(err)
	}
	batches := streamBatches(records)
	dir := t.TempDir()
	pipe, err := cem.NewPipeline(
		cem.WithScheme(cem.SchemeSMP),
		cem.WithRunnerOptions(cem.WithCheckpointDir(dir)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Update(context.Background(), nil, batches[0]); err != nil {
		t.Fatal(err)
	}
	// The trail in dir fingerprints the batch-0 cover. Resuming with the
	// delta ingested (more entities, more neighborhoods) must fail.
	union := append(append([]cem.Record(nil), batches[0]...), batches[1]...)
	if _, err := pipe.Resume(context.Background(), union); err == nil {
		t.Error("resuming a pre-delta trail against the post-delta cover succeeded")
	}
}

// TestRunFromValidation pins what a warm start may continue. A prior is a
// fixpoint of one matcher under one scheme, so a prior from another
// matcher or another scheme — like one from another blocking config —
// forces a cold run on an additive delta, matching the target pipeline's
// cold Run; and a pipeline whose scheme has no rounds (FULL, UB) has no
// incremental path at all.
func TestRunFromValidation(t *testing.T) {
	records, err := cem.GenerateRecords(cem.DBLP, 0.25, 42)
	if err != nil {
		t.Fatal(err)
	}
	batches := streamBatches(records)
	union := append(append([]cem.Record(nil), batches[0]...), batches[1]...)
	pipeline := func(matcher string, s cem.Scheme) *cem.Pipeline {
		p, err := cem.NewPipeline(cem.WithMatcher(matcher), cem.WithScheme(s))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	smp := pipeline(cem.MatcherMLN, cem.SchemeSMP)
	prior, err := smp.Update(context.Background(), nil, batches[0])
	if err != nil {
		t.Fatal(err)
	}
	// The control: the prior's own pipeline continues it warm, so the
	// delta is additive and only the prior's provenance decides below.
	own, err := smp.Update(context.Background(), prior, batches[1])
	if err != nil {
		t.Fatal(err)
	}
	if !own.WarmStarted {
		t.Fatal("the prior's own pipeline ran the delta cold; the fixture's delta is not additive")
	}
	for _, target := range []struct {
		name string
		pipe *cem.Pipeline
	}{
		{"matcher", pipeline(cem.MatcherRules, cem.SchemeSMP)},
		{"scheme", pipeline(cem.MatcherMLN, cem.SchemeMMP)},
		{"both", pipeline(cem.MatcherRules, cem.SchemeNoMP)},
	} {
		cross, err := target.pipe.Update(context.Background(), prior, batches[1])
		if err != nil {
			t.Fatalf("%s: a foreign prior was refused: %v", target.name, err)
		}
		if cross.WarmStarted || !cross.ForcedRerun {
			t.Errorf("%s: foreign prior warm=%v forced=%v, want a forced cold run", target.name, cross.WarmStarted, cross.ForcedRerun)
		}
		cold, err := target.pipe.Run(context.Background(), union)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := renderMatches(cross.Result), renderMatches(cold.Result); got != want {
			t.Errorf("%s: update from a foreign prior diverges from the cold run: %s", target.name, firstDiff(got, want))
		}
	}
	for _, s := range []cem.Scheme{cem.SchemeFull, cem.SchemeUB} {
		if _, err := pipeline(cem.MatcherMLN, s).Update(context.Background(), prior, batches[1]); err == nil {
			t.Errorf("Update accepted the %s scheme (no incremental path)", s)
		}
	}
}

// TestUpdateAcrossBlockingConfigs: handing a prior to a pipeline with a
// DIFFERENT blocking configuration must not reuse the prior's index —
// its cover would match the wrong pipeline. The foreign branch rebuilds
// and still equals its own cold run.
func TestUpdateAcrossBlockingConfigs(t *testing.T) {
	records, err := cem.GenerateRecords(cem.DBLP, 0.25, 42)
	if err != nil {
		t.Fatal(err)
	}
	batches := streamBatches(records)
	union := append(append([]cem.Record(nil), batches[0]...), batches[1]...)
	loose, err := cem.NewPipeline(cem.WithScheme(cem.SchemeSMP))
	if err != nil {
		t.Fatal(err)
	}
	tight, err := cem.NewPipeline(cem.WithScheme(cem.SchemeSMP), cem.WithMaxNeighborhood(8))
	if err != nil {
		t.Fatal(err)
	}
	prior, err := loose.Update(context.Background(), nil, batches[0])
	if err != nil {
		t.Fatal(err)
	}
	cross, err := tight.Update(context.Background(), prior, batches[1])
	if err != nil {
		t.Fatal(err)
	}
	if cross.WarmStarted || !cross.ForcedRerun {
		t.Errorf("cross-config update warm-started (warm=%v forced=%v); foreign evidence must force a cold run",
			cross.WarmStarted, cross.ForcedRerun)
	}
	cold, err := tight.Run(context.Background(), union)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderMatches(cross.Result), renderMatches(cold.Result); got != want {
		t.Errorf("cross-config update diverges from the target pipeline's cold run: %s", firstDiff(got, want))
	}
	// The rebuilt branch is self-consistent: the NEXT batch on the same
	// pipeline still equals its cold run. (With a MaxNeighborhood cap,
	// arrivals may displace canopy members, so this config legitimately
	// alternates between warm starts and forced reruns — correctness,
	// not warmth, is the invariant here.)
	next, err := tight.Update(context.Background(), cross, batches[2])
	if err != nil {
		t.Fatal(err)
	}
	coldAll, err := tight.Run(context.Background(), append(union, batches[2]...))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderMatches(next.Result), renderMatches(coldAll.Result); got != want {
		t.Errorf("follow-up update after a cross-config rebuild diverges from cold: %s", firstDiff(got, want))
	}
}

// TestSnapshotRejectsWholeSetSchemes: FULL and UB results have no round
// structure, so they save no state a pipeline could reopen and continue.
func TestSnapshotRejectsWholeSetSchemes(t *testing.T) {
	records, err := cem.GenerateRecords(cem.DBLP, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []cem.Scheme{cem.SchemeFull, cem.SchemeUB} {
		pipe, err := cem.NewPipeline(cem.WithScheme(s))
		if err != nil {
			t.Fatal(err)
		}
		res, err := pipe.Run(context.Background(), records)
		if err != nil {
			t.Fatal(err)
		}
		st, err := cem.OpenStore("mem")
		if err != nil {
			t.Fatal(err)
		}
		if err := cem.SaveState(st, res, 1); err == nil {
			t.Errorf("SaveState accepted a %s result", s)
		}
		if _, err := cem.StateSeq(st); !errors.Is(err, match.ErrBlobNotFound) {
			t.Errorf("a refused %s save left state behind: %v", s, err)
		}
	}
}

// TestUpdateArgumentErrors pins Update's own validation.
func TestUpdateArgumentErrors(t *testing.T) {
	records, err := cem.GenerateRecords(cem.DBLP, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := cem.NewPipeline(cem.WithScheme(cem.SchemeSMP))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Update(context.Background(), nil, nil); err == nil {
		t.Error("Update accepted an empty batch")
	}
	full, err := cem.NewPipeline(cem.WithScheme(cem.SchemeFull))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := full.Update(context.Background(), nil, records); err == nil {
		t.Error("Update accepted the FULL scheme (no incremental path)")
	}
	if _, err := pipe.Update(context.Background(), &cem.PipelineResult{}, records); err == nil {
		t.Error("Update accepted a prior without ingestion state")
	}
}

// TestUpdateForkedPrior: Updates share the blocking index along a
// chain, so re-updating from a STALE prior (a fork — the index has
// already advanced past it) must not silently reuse the other branch's
// state: the fork is replayed fresh and still matches its cold run.
func TestUpdateForkedPrior(t *testing.T) {
	records, err := cem.GenerateRecords(cem.DBLP, 0.25, 42)
	if err != nil {
		t.Fatal(err)
	}
	batches := streamBatches(records)
	pipe, err := cem.NewPipeline(cem.WithScheme(cem.SchemeSMP))
	if err != nil {
		t.Fatal(err)
	}
	base, err := pipe.Update(context.Background(), nil, batches[0])
	if err != nil {
		t.Fatal(err)
	}
	// First branch advances the shared index to all three batches.
	mid, err := pipe.Update(context.Background(), base, batches[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Update(context.Background(), mid, batches[2]); err != nil {
		t.Fatal(err)
	}
	// Second branch forks from the now-stale base with batch 2 only.
	fork, err := pipe.Update(context.Background(), base, batches[2])
	if err != nil {
		t.Fatal(err)
	}
	union := append(append([]cem.Record(nil), batches[0]...), batches[2]...)
	cold, err := pipe.Run(context.Background(), union)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderMatches(fork.Result), renderMatches(cold.Result); got != want {
		t.Errorf("forked-prior update diverges from its cold run: %s", firstDiff(got, want))
	}
}

// TestUpdateInheritsNameTable: along an Update chain each batch's name
// table continues the prior's — every class pair the prior scored is held
// at the same level, so Scored() never falls — and the kernel calls the
// batches make of their own add up to the final Scored(): the stream scores
// each class pair once, and parses each record once. The tight pipeline's
// small neighborhoods force cold re-runs on some batches, which inherit all
// the same.
func TestUpdateInheritsNameTable(t *testing.T) {
	records, err := cem.GenerateRecords(cem.DBLP, 0.25, 42)
	if err != nil {
		t.Fatal(err)
	}
	var batches [][]cem.Record
	for i, b := range streamBatches(records) {
		for lo, step := 0, max(1, len(b)/(1+3*min(i, 1))); lo < len(b); lo += step {
			batches = append(batches, b[lo:min(lo+step, len(b))])
		}
	}
	for _, opts := range [][]cem.PipelineOption{nil, {cem.WithMaxNeighborhood(8)}} {
		pipe, err := cem.NewPipeline(append(opts, cem.WithScheme(cem.SchemeSMP))...)
		if err != nil {
			t.Fatal(err)
		}
		var res *cem.PipelineResult
		spent, parsed, rebuilt := 0, 0, 0
		for i, batch := range batches {
			var prior *bib.NameTable
			if res != nil {
				prior = res.Experiment.Dataset.Names()
			}
			if res, err = pipe.Update(context.Background(), res, batch); err != nil {
				t.Fatal(err)
			}
			if res.ForcedRerun {
				rebuilt++
			}
			names := res.Experiment.Dataset.Names()
			refs, pairs := names.Kept()
			spent += names.Scored() - pairs
			parsed += res.Records - refs
			if prior == nil {
				continue
			}
			if refs != res.Records-len(batch) || pairs != prior.Scored() || names.Scored() < prior.Scored() {
				t.Fatalf("batch %d: kept (%d refs, %d pairs) and scored %d, the prior had %d refs and %d pairs",
					i, refs, pairs, names.Scored(), res.Records-len(batch), prior.Scored())
			}
			scored := names.Scored()
			for p, l := range prior.ScoredPairs() {
				if got := names.Level(p[0], p[1]); got != l {
					t.Fatalf("batch %d: class pair %v at level %d, the prior's table says %d", i, p, got, l)
				}
			}
			if names.Scored() != scored {
				t.Fatalf("batch %d: %d of the prior's class pairs are missing from its table", i, names.Scored()-scored)
			}
		}
		final := res.Experiment.Dataset.Names().Scored()
		if spent != final || parsed != len(records) {
			t.Errorf("%d batches made %d kernel calls and parsed %d records; the final table holds %d pairs over %d records",
				len(batches), spent, parsed, final, len(records))
		}
		t.Logf("%d batches (%d forced re-runs): %d kernel calls, %d records parsed", len(batches), rebuilt, spent, parsed)
	}
}

// TestUpdateConcurrentForks: two goroutines updating from the SAME
// prior race on the shared blocking index; the atomic AddFrom advance
// means one branch wins it and the other rebuilds — both must match
// their respective cold runs. (Run under -race in CI.)
func TestUpdateConcurrentForks(t *testing.T) {
	records, err := cem.GenerateRecords(cem.DBLP, 0.25, 42)
	if err != nil {
		t.Fatal(err)
	}
	batches := streamBatches(records)
	pipe, err := cem.NewPipeline(cem.WithScheme(cem.SchemeSMP))
	if err != nil {
		t.Fatal(err)
	}
	base, err := pipe.Update(context.Background(), nil, batches[0])
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*cem.PipelineResult, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, batch := range [][]cem.Record{batches[1], batches[2]} {
		wg.Add(1)
		go func(i int, batch []cem.Record) {
			defer wg.Done()
			results[i], errs[i] = pipe.Update(context.Background(), base, batch)
		}(i, batch)
	}
	wg.Wait()
	for i, batch := range [][]cem.Record{batches[1], batches[2]} {
		if errs[i] != nil {
			t.Fatalf("concurrent fork %d: %v", i, errs[i])
		}
		union := append(append([]cem.Record(nil), batches[0]...), batch...)
		cold, err := pipe.Run(context.Background(), union)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := renderMatches(results[i].Result), renderMatches(cold.Result); got != want {
			t.Errorf("concurrent fork %d diverges from its cold run: %s", i, firstDiff(got, want))
		}
	}
}

// TestUpdatePriorFromRun: a prior produced by Run carries its blocking
// index, so Update advances that index — no replay of the Run's records —
// warm-starts, and the result still matches the cold union run.
func TestUpdatePriorFromRun(t *testing.T) {
	records, err := cem.GenerateRecords(cem.DBLP, 0.25, 42)
	if err != nil {
		t.Fatal(err)
	}
	batches := streamBatches(records)
	union := append(append(append([]cem.Record(nil), batches[0]...), batches[1]...), batches[2]...)
	pipe, err := cem.NewPipeline(cem.WithScheme(cem.SchemeSMP))
	if err != nil {
		t.Fatal(err)
	}
	prior, err := pipe.Run(context.Background(), batches[0])
	if err != nil {
		t.Fatal(err)
	}
	ix := cem.IndexOf(prior)
	if ix == nil || ix.Len() != len(batches[0]) {
		t.Fatal("the Run result carries no blocking index over its records")
	}
	mid, err := pipe.Update(context.Background(), prior, batches[1])
	if err != nil {
		t.Fatal(err)
	}
	if !mid.WarmStarted {
		t.Error("update on a Run-produced prior did not warm-start")
	}
	if cem.IndexOf(mid) != ix || ix.Len() != len(batches[0])+len(batches[1]) {
		t.Error("update on a Run-produced prior rebuilt its blocking index instead of advancing the Run's")
	}
	final, err := pipe.Update(context.Background(), mid, batches[2])
	if err != nil {
		t.Fatal(err)
	}
	cold, err := pipe.Run(context.Background(), union)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderMatches(final.Result), renderMatches(cold.Result); got != want {
		t.Errorf("Run-seeded incremental chain diverges from cold run: %s", firstDiff(got, want))
	}
}

// TestUpdateNonAdditiveEnumeratesCandidates pins a stream whose second batch
// is not additive — a four-reference neighborhood cap makes an arrival
// displace canopy members — and on which the carried candidate table would
// be wrong: the prior's candidates merged with the changed sets' pairs keep
// pairs no set of the new cover holds. Update must force a cold run and
// enumerate the whole cover, so its table and matches equal a cold run's.
func TestUpdateNonAdditiveEnumeratesCandidates(t *testing.T) {
	records, err := cem.GenerateRecords(cem.DBLP, 0.1, 42)
	if err != nil {
		t.Fatal(err)
	}
	batches := arrival(rand.New(rand.NewSource(0)), records)[:2]
	pipe, err := cem.NewPipeline(cem.WithScheme(cem.SchemeSMP), cem.WithMaxNeighborhood(4))
	if err != nil {
		t.Fatal(err)
	}
	prior, err := pipe.Update(context.Background(), nil, batches[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipe.Update(context.Background(), prior, batches[1])
	if err != nil {
		t.Fatal(err)
	}
	if !res.ForcedRerun {
		t.Fatalf("the pinned batch was additive (warm=%v); the stream no longer exercises the non-additive path", res.WarmStarted)
	}

	// The delta the Update saw, from an index of the test's own.
	cfg := cem.DefaultOptions().Canopy
	cfg.MaxNeighborhood = 4
	ix, err := canopy.NewIndex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Add(context.Background(), prior.Experiment.Dataset); err != nil {
		t.Fatal(err)
	}
	cover, delta, err := ix.Add(context.Background(), res.Experiment.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	full := canopy.CandidatePairs(res.Experiment.Dataset, cover)
	if carried := canopy.CarriedCandidatePairs(res.Experiment.Dataset, cover, prior.Experiment.Candidates, delta.Changed); slices.Equal(carried, full) {
		t.Fatalf("carrying the table is exact on this batch too (%d candidates); the stream no longer tells the two paths apart", len(full))
	}

	cold, err := pipe.Run(context.Background(), append(slices.Clone(batches[0]), batches[1]...))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Experiment.Candidates, full) || !slices.Equal(res.Experiment.Candidates, cold.Experiment.Candidates) {
		t.Errorf("update has %d candidates; enumerating the cover gives %d, a cold run %d",
			len(res.Experiment.Candidates), len(full), len(cold.Experiment.Candidates))
	}
	if got, want := renderMatches(res.Result), renderMatches(cold.Result); got != want {
		t.Errorf("non-additive update diverges from the cold run: %s", firstDiff(got, want))
	}
}
