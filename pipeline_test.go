package cem_test

// Tests for the end-to-end ingestion pipeline: records in, matches and
// metrics out, through public packages only.

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	cem "repro"
	"repro/internal/experiments"
	"repro/match"
)

// TestPipelineShardedIdenticalToSerial is the acceptance check: on the
// HEPTH and DBLP seeds, the pipeline's sharded blocking produces the
// exact same cover and the exact same match set as a single-shard run.
func TestPipelineShardedIdenticalToSerial(t *testing.T) {
	for _, kind := range []cem.DatasetKind{cem.HEPTH, cem.DBLP} {
		records, err := cem.GenerateRecords(kind, 0.25, 42)
		if err != nil {
			t.Fatal(err)
		}
		run := func(shards int) *cem.PipelineResult {
			t.Helper()
			pipe, err := cem.NewPipeline(
				cem.WithMatcher(cem.MatcherMLN),
				cem.WithScheme(cem.SchemeSMP),
				cem.WithShards(shards),
			)
			if err != nil {
				t.Fatal(err)
			}
			res, err := pipe.Run(context.Background(), records)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		serial := run(1)
		for _, shards := range []int{2, 5, 0} {
			sharded := run(shards)
			if !reflect.DeepEqual(sharded.Experiment.Cover.Sets, serial.Experiment.Cover.Sets) {
				t.Errorf("%s shards=%d: sharded cover differs from serial", kind, shards)
			}
			if !sharded.Matches.Equal(serial.Matches) {
				t.Errorf("%s shards=%d: %d matches, serial %d",
					kind, shards, sharded.Matches.Len(), serial.Matches.Len())
			}
		}
	}
}

// TestPipelineAgreesWithExperimentPath: records → pipeline equals
// dataset → New → Runner on the same corpus, and the metrics match a
// direct evaluation.
func TestPipelineAgreesWithExperimentPath(t *testing.T) {
	d := cem.NewDataset(cem.DBLP, 0.2, 11)
	exp, err := cem.New(d)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := exp.Runner(cem.MatcherRules)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runner.Run(context.Background(), cem.SchemeSMP)
	if err != nil {
		t.Fatal(err)
	}

	pipe, err := cem.NewPipeline(cem.WithMatcher(cem.MatcherRules), cem.WithScheme(cem.SchemeSMP))
	if err != nil {
		t.Fatal(err)
	}
	got, err := pipe.Run(context.Background(), cem.RecordsFromDataset(d))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Matches.Equal(want.Matches) {
		t.Fatalf("pipeline %d matches, experiment path %d", got.Matches.Len(), want.Matches.Len())
	}
	if !got.Labeled || got.Report == nil || got.BCubed == nil {
		t.Fatal("fully labeled records must produce metrics")
	}
	if got.Report.PRF != exp.Evaluate(want).PRF {
		t.Errorf("pipeline report %v != direct evaluation %v", got.Report.PRF, exp.Evaluate(want).PRF)
	}
	if *got.BCubed != exp.EvaluateBCubed(want) {
		t.Errorf("pipeline B³ %v != direct %v", *got.BCubed, exp.EvaluateBCubed(want))
	}
	if got.Records != d.NumRefs() {
		t.Errorf("Records = %d, want %d", got.Records, d.NumRefs())
	}
}

// TestPipelineUnlabeledRecords: records without gold labels run fine
// and simply skip the metrics.
func TestPipelineUnlabeledRecords(t *testing.T) {
	records := []cem.Record{
		cem.BasicRecord{Key: "Vibhor Rastogi", Group: 1, Gold: -1},
		cem.BasicRecord{Key: "Nilesh Dalvi", Group: 1, Gold: -1},
		cem.BasicRecord{Key: "Minos Garofalakis", Group: 1, Gold: -1},
		cem.BasicRecord{Key: "V. Rastogi", Group: 2, Gold: -1},
		cem.BasicRecord{Key: "N. Dalvi", Group: 2, Gold: -1},
		cem.BasicRecord{Key: "M. Garofalakis", Group: 2, Gold: -1},
	}
	pipe, err := cem.NewPipeline(cem.WithScheme(cem.SchemeMMP))
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipe.Run(context.Background(), records)
	if err != nil {
		t.Fatal(err)
	}
	if res.Labeled || res.Report != nil || res.BCubed != nil {
		t.Error("unlabeled records must not produce metrics")
	}
	// The repeated trio is the Figure 2 situation: MMP recovers all
	// three cross-paper pairs.
	if res.Matches.Len() != 3 {
		t.Errorf("MMP found %d matches on the repeated trio, want 3: %v",
			res.Matches.Len(), res.Matches.Sorted())
	}
}

// TestPipelineKeyOnlyRecords: a record type implementing only
// RecordKey (no group, no gold) is accepted.
type keyOnly string

func (k keyOnly) RecordKey() string { return string(k) }

func TestPipelineKeyOnlyRecords(t *testing.T) {
	pipe, err := cem.NewPipeline(cem.WithMatcher(cem.MatcherRules))
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipe.Run(context.Background(), []cem.Record{
		keyOnly("John Smith"), cem.KeyRecord("John Smith"), cem.KeyRecord("Jane Roe"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Labeled {
		t.Error("key-only records reported as labeled")
	}
	if res.Records != 3 {
		t.Errorf("Records = %d", res.Records)
	}
}

// boundedBlocking is the default blocking with every canopy core bounded to
// k records.
func boundedBlocking(k int) cem.PipelineOption {
	cfg := cem.DefaultOptions().Canopy
	cfg.MaxNeighborhood = k
	return cem.WithBlocking(cfg)
}

// blockingSeen records the blocking configuration each "blocking-probe"
// matcher was built under.
var blockingSeen struct {
	sync.Mutex
	cfgs []cem.CanopyConfig
}

func init() {
	cem.RegisterMatcher("blocking-probe", func(mc cem.MatcherContext) (match.Matcher, error) {
		blockingSeen.Lock()
		blockingSeen.cfgs = append(blockingSeen.cfgs, mc.Options.Canopy)
		blockingSeen.Unlock()
		rules, _ := cem.LookupMatcher(cem.MatcherRules)
		return rules(mc)
	})
}

// TestPipelineMatchersSeeItsBlocking: a matcher factory's context carries
// the pipeline's blocking configuration — WithBlocking's, canopy core
// bound included — on Run and on Update alike.
func TestPipelineMatchersSeeItsBlocking(t *testing.T) {
	records, err := cem.GenerateRecords(cem.DBLP, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	blocking := cem.DefaultOptions().Canopy
	blocking.Loose, blocking.MaxAligned, blocking.MaxNeighborhood = 0.5, 2, 6
	pipe, err := cem.NewPipeline(cem.WithMatcher("blocking-probe"), cem.WithScheme(cem.SchemeSMP),
		cem.WithBlocking(blocking))
	if err != nil {
		t.Fatal(err)
	}
	blockingSeen.Lock()
	blockingSeen.cfgs = nil
	blockingSeen.Unlock()
	half := len(records) / 2
	res, err := pipe.Run(context.Background(), records[:half])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Update(context.Background(), res, records[half:]); err != nil {
		t.Fatal(err)
	}
	want := blocking
	blockingSeen.Lock()
	defer blockingSeen.Unlock()
	if len(blockingSeen.cfgs) != 2 {
		t.Fatalf("the probe matcher was built %d times, want once per call", len(blockingSeen.cfgs))
	}
	for i, got := range blockingSeen.cfgs {
		if got != want {
			t.Errorf("build %d: the matcher saw blocking %+v, the pipeline blocks with %+v", i, got, want)
		}
	}
}

// TestPublicRecordsRoundTrip: cem.WriteRecords / cem.ReadRecords
// round-trip records (including ungrouped/unlabeled) without touching
// internal packages.
func TestPublicRecordsRoundTrip(t *testing.T) {
	records := []cem.Record{
		cem.BasicRecord{Key: "V. Rastogi", Group: 2, Gold: 7},
		cem.KeyRecord("Jane Roe"),
	}
	var buf strings.Builder
	if err := cem.WriteRecords(&buf, "rt", records); err != nil {
		t.Fatal(err)
	}
	name, got, err := cem.ReadRecords(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if name != "rt" || len(got) != 2 {
		t.Fatalf("name=%q records=%d", name, len(got))
	}
	want := []cem.BasicRecord{
		{Key: "V. Rastogi", Group: 2, Gold: 7},
		{Key: "Jane Roe", Group: -1, Gold: -1},
	}
	for i, r := range got {
		if r.(cem.BasicRecord) != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, r, want[i])
		}
	}
}

// TestPipelineOptionValidation: malformed configurations fail at
// construction (blocking, shards, scheme, matcher name) or at Run
// (unregistered matcher), never panic.
func TestPipelineOptionValidation(t *testing.T) {
	bad := cem.CanopyConfig{Loose: 0.9, Tight: 0.2, Q: 2}
	if _, err := cem.NewPipeline(cem.WithBlocking(bad)); err == nil {
		t.Error("inverted thresholds accepted")
	}
	if _, err := cem.NewPipeline(cem.WithShards(-1)); err == nil {
		t.Error("negative shards accepted")
	}
	if _, err := cem.NewPipeline(cem.WithScheme("bogus")); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := cem.NewPipeline(cem.WithMatcher("")); err == nil {
		t.Error("empty matcher accepted")
	}
	if _, err := cem.NewPipeline(boundedBlocking(-2)); err == nil {
		t.Error("negative neighborhood bound accepted")
	}
	pipe, err := cem.NewPipeline(cem.WithMatcher("no-such-matcher"))
	if err != nil {
		t.Fatal(err)
	}
	recs := []cem.Record{cem.BasicRecord{Key: "A B", Group: -1, Gold: -1}}
	if _, err := pipe.Run(context.Background(), recs); err == nil ||
		!strings.Contains(err.Error(), "no-such-matcher") {
		t.Errorf("unregistered matcher: err = %v", err)
	}
	ok, err := cem.NewPipeline()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ok.Run(context.Background(), nil); err == nil {
		t.Error("empty record list accepted")
	}
}

// TestPipelineMaxNeighborhoodBound: the size bound flows from the
// blocking configuration into blocking; tighter bounds mean more, smaller
// neighborhoods.
func TestPipelineMaxNeighborhoodBound(t *testing.T) {
	records, err := cem.GenerateRecords(cem.HEPTH, 0.25, 42)
	if err != nil {
		t.Fatal(err)
	}
	run := func(bound int) *cem.PipelineResult {
		pipe, err := cem.NewPipeline(
			cem.WithMatcher(cem.MatcherRules),
			cem.WithScheme(cem.SchemeNoMP),
			boundedBlocking(bound),
		)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pipe.Run(context.Background(), records)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	unbounded := run(0).Experiment.Cover.ComputeStats()
	bounded := run(8).Experiment.Cover.ComputeStats()
	if bounded.MeanSize >= unbounded.MeanSize {
		t.Errorf("bound 8 did not shrink neighborhoods: %v vs %v", bounded, unbounded)
	}
	if bounded.Neighborhoods <= unbounded.Neighborhoods {
		t.Errorf("bound 8 did not fragment the cover: %v vs %v", bounded, unbounded)
	}
}

// TestPipelineCancellation: a canceled context aborts the pipeline with
// ctx.Err(), from the blocking stage on.
func TestPipelineCancellation(t *testing.T) {
	records, err := cem.GenerateRecords(cem.DBLP, 0.25, 42)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := cem.NewPipeline(cem.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := pipe.Run(ctx, records); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestRunGridSurfacesConfigErrors: Table 1 refuses a grid it cannot
// simulate — no machines, a negative round overhead — with an error
// naming the knob.
func TestRunGridSurfacesConfigErrors(t *testing.T) {
	for _, c := range []struct {
		machines int
		overhead time.Duration
		knob     string
	}{
		{0, 0, "Machines"},
		{-3, time.Second, "Machines"},
		{4, -time.Second, "RoundOverhead"},
	} {
		cfg := experiments.Default()
		cfg.Machines, cfg.RoundOverhead = c.machines, c.overhead
		if _, err := experiments.Table1(cfg); err == nil || !strings.Contains(err.Error(), c.knob) {
			t.Errorf("Machines = %d, RoundOverhead = %v: err = %v, want a refusal naming %s",
				c.machines, c.overhead, err, c.knob)
		}
	}
}

// TestPipelineStats: every Update's result reports how it ran — the
// first batch cold, every later batch exactly one of warm or forced —
// and its verdict-memo report shows the memo consulted, with the warm
// updates served hits (re-activated neighborhoods whose relevant
// evidence did not change).
func TestPipelineStats(t *testing.T) {
	records, err := cem.GenerateRecords(cem.DBLP, 0.25, 42)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := cem.NewPipeline(cem.WithScheme(cem.SchemeSMP))
	if err != nil {
		t.Fatal(err)
	}

	n := len(records)
	var state *cem.PipelineResult
	lo, warm := 0, 0
	var warmHits int64
	for i, hi := range []int{n * 7 / 10, n * 8 / 10, n * 9 / 10, n} {
		state, err = pipe.Update(context.Background(), state, records[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && (state.WarmStarted || state.ForcedRerun) {
			t.Errorf("first batch: warm %v, forced %v, want a cold start", state.WarmStarted, state.ForcedRerun)
		}
		if i > 0 && state.WarmStarted == state.ForcedRerun {
			t.Errorf("batch %d: warm %v, forced %v, want exactly one", i+1, state.WarmStarted, state.ForcedRerun)
		}
		if state.Records != hi {
			t.Errorf("batch %d: Records = %d, want %d", i+1, state.Records, hi)
		}
		// The default mln matcher memoizes verdicts.
		if state.Stats.MatcherCalls > 0 && state.Stats.Cache.Lookups() == 0 {
			t.Errorf("batch %d: %d matcher calls consulted no memo", i+1, state.Stats.MatcherCalls)
		}
		if state.WarmStarted {
			warm++
			warmHits += state.Stats.Cache.Hits
		}
		lo = hi
	}
	if warm == 0 {
		t.Error("no batch warm-started")
	}
	if warmHits == 0 {
		t.Error("warm incremental updates recorded no cache hits")
	}
}

// TestPipelineStageTimesCoverTheRun: BlockingTime + MatchingTime account
// for the wall of Run and of Update. Candidate enumeration and matcher
// grounding used to fall between the two timers — close to half of a cold
// HEPTH run that neither reported; only record conversion and metric
// evaluation stay outside them.
func TestPipelineStageTimesCoverTheRun(t *testing.T) {
	records, err := cem.GenerateRecords(cem.HEPTH, 0.5, 42)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := cem.NewPipeline(cem.WithMatcher(cem.MatcherMLN), cem.WithScheme(cem.SchemeSMP))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	timed := func(name string, call func() (*cem.PipelineResult, error)) *cem.PipelineResult {
		t.Helper()
		start := time.Now()
		res, err := call()
		wall := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if staged := res.BlockingTime + res.MatchingTime; staged > wall || wall-staged > wall/8 {
			t.Errorf("%s: blocking %v + matching %v = %v, wall %v", name, res.BlockingTime, res.MatchingTime, staged, wall)
		}
		return res
	}
	timed("Run", func() (*cem.PipelineResult, error) { return pipe.Run(ctx, records) })
	half := len(records) / 2
	first := timed("Update(nil)", func() (*cem.PipelineResult, error) { return pipe.Update(ctx, nil, records[:half]) })
	timed("Update", func() (*cem.PipelineResult, error) { return pipe.Update(ctx, first, records[half:]) })
}
