package cem_test

// One testing.B benchmark per table and figure of the paper's evaluation
// (§6, Appendix C), plus scheme-level micro-benchmarks. Each experiment
// benchmark regenerates its table at a reduced scale per iteration; run
//
//	go test -bench=. -benchmem
//
// and see cmd/embench for the full-scale, human-readable reproduction.

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	cem "repro"
	"repro/internal/experiments"
	"repro/match"
)

// benchConfig keeps per-iteration work bounded.
func benchConfig() experiments.Config {
	cfg := experiments.Default()
	cfg.Scale = 0.2
	cfg.Machines = 8
	cfg.RoundOverhead = time.Millisecond
	cfg.Fig3fSteps = 4
	return cfg
}

func benchExperiment(b *testing.B, fn func(experiments.Config) (*experiments.Table, error)) {
	b.Helper()
	cfg := benchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fn(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3a(b *testing.B)  { benchExperiment(b, experiments.Fig3a) }
func BenchmarkFig3b(b *testing.B)  { benchExperiment(b, experiments.Fig3b) }
func BenchmarkFig3c(b *testing.B)  { benchExperiment(b, experiments.Fig3c) }
func BenchmarkFig3d(b *testing.B)  { benchExperiment(b, experiments.Fig3d) }
func BenchmarkFig3e(b *testing.B)  { benchExperiment(b, experiments.Fig3e) }
func BenchmarkFig3f(b *testing.B)  { benchExperiment(b, experiments.Fig3f) }
func BenchmarkTable1(b *testing.B) { benchExperiment(b, experiments.Table1) }
func BenchmarkFig4a(b *testing.B)  { benchExperiment(b, experiments.Fig4a) }
func BenchmarkFig4b(b *testing.B)  { benchExperiment(b, experiments.Fig4b) }
func BenchmarkFig4c(b *testing.B)  { benchExperiment(b, experiments.Fig4c) }
func BenchmarkAblationCover(b *testing.B) {
	benchExperiment(b, experiments.AblationCover)
}

// --- scheme-level micro-benchmarks over a fixed experiment ------------

func benchScheme(b *testing.B, kind cem.DatasetKind, s cem.Scheme, m string, opts ...cem.RunnerOption) {
	b.Helper()
	exp, err := cem.New(cem.NewDataset(kind, 0.25, 42))
	if err != nil {
		b.Fatal(err)
	}
	runner, err := exp.Runner(m, opts...)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.Run(ctx, s); err != nil {
			b.Fatal(err)
		}
	}
}

// --- parallel vs serial NO-MP (the worker-pool win; outputs identical) --

func BenchmarkNoMPSerialHepth(b *testing.B) {
	benchScheme(b, cem.HEPTH, cem.SchemeNoMP, cem.MatcherMLN, cem.WithParallelism(1))
}
func BenchmarkNoMPParallelHepth(b *testing.B) {
	benchScheme(b, cem.HEPTH, cem.SchemeNoMP, cem.MatcherMLN,
		cem.WithParallelism(runtime.NumCPU()))
}
func BenchmarkNoMPSerialDblp(b *testing.B) {
	benchScheme(b, cem.DBLP, cem.SchemeNoMP, cem.MatcherMLN, cem.WithParallelism(1))
}
func BenchmarkNoMPParallelDblp(b *testing.B) {
	benchScheme(b, cem.DBLP, cem.SchemeNoMP, cem.MatcherMLN,
		cem.WithParallelism(runtime.NumCPU()))
}

func BenchmarkNoMPMLNHepth(b *testing.B) { benchScheme(b, cem.HEPTH, cem.SchemeNoMP, cem.MatcherMLN) }
func BenchmarkSMPMLNHepth(b *testing.B)  { benchScheme(b, cem.HEPTH, cem.SchemeSMP, cem.MatcherMLN) }
func BenchmarkMMPMLNHepth(b *testing.B)  { benchScheme(b, cem.HEPTH, cem.SchemeMMP, cem.MatcherMLN) }
func BenchmarkUBMLNHepth(b *testing.B)   { benchScheme(b, cem.HEPTH, cem.SchemeUB, cem.MatcherMLN) }
func BenchmarkFullMLNHepth(b *testing.B) { benchScheme(b, cem.HEPTH, cem.SchemeFull, cem.MatcherMLN) }
func BenchmarkNoMPMLNDblp(b *testing.B)  { benchScheme(b, cem.DBLP, cem.SchemeNoMP, cem.MatcherMLN) }
func BenchmarkSMPMLNDblp(b *testing.B)   { benchScheme(b, cem.DBLP, cem.SchemeSMP, cem.MatcherMLN) }
func BenchmarkMMPMLNDblp(b *testing.B)   { benchScheme(b, cem.DBLP, cem.SchemeMMP, cem.MatcherMLN) }
func BenchmarkSMPRulesHepth(b *testing.B) {
	benchScheme(b, cem.HEPTH, cem.SchemeSMP, cem.MatcherRules)
}
func BenchmarkFullRulesDblp(b *testing.B) {
	benchScheme(b, cem.DBLP, cem.SchemeFull, cem.MatcherRules)
}

// --- blocking stage and end-to-end pipeline ---------------------------

// benchBlocking measures the sharded blocking stage alone (dataset →
// total cover → candidate pairs → grounded matchers: everything
// PipelineResult.BlockingTime spans) through the public pipeline
// configuration.
func benchBlocking(b *testing.B, kind cem.DatasetKind, scale float64, shards int) {
	b.Helper()
	records, err := cem.GenerateRecords(kind, scale, 42)
	if err != nil {
		b.Fatal(err)
	}
	// NoMP with the cheap rules matcher keeps the post-blocking stages
	// negligible; BlockingTime is reported as the metric of interest.
	pipe, err := cem.NewPipeline(
		cem.WithMatcher(cem.MatcherRules),
		cem.WithScheme(cem.SchemeNoMP),
		cem.WithShards(shards),
	)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var blocking time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pipe.Run(ctx, records)
		if err != nil {
			b.Fatal(err)
		}
		blocking += res.BlockingTime
	}
	b.ReportMetric(float64(blocking.Nanoseconds())/float64(b.N), "blocking-ns/op")
}

func BenchmarkBlockingSerialHepth(b *testing.B) { benchBlocking(b, cem.HEPTH, 0.25, 1) }
func BenchmarkBlockingShardedHepth(b *testing.B) {
	benchBlocking(b, cem.HEPTH, 0.25, runtime.NumCPU())
}
func BenchmarkBlockingSerialDblp(b *testing.B) { benchBlocking(b, cem.DBLP, 0.25, 1) }
func BenchmarkBlockingShardedDblp(b *testing.B) {
	benchBlocking(b, cem.DBLP, 0.25, runtime.NumCPU())
}

// The people corpus at the people-cold benchmark workload's scale: composite
// typed-field keys of 30-45 bytes, where name similarity is the long-input
// Jaro kernel rather than the short-name one.
func BenchmarkBlockingSerialPeople(b *testing.B) { benchBlocking(b, cem.People, 0.7, 1) }

// benchPipeline measures the full records→matches→metrics path.
func benchPipeline(b *testing.B, kind cem.DatasetKind, scale float64, matcher string, scheme cem.Scheme) {
	b.Helper()
	records, err := cem.GenerateRecords(kind, scale, 42)
	if err != nil {
		b.Fatal(err)
	}
	pipe, err := cem.NewPipeline(
		cem.WithMatcher(matcher),
		cem.WithScheme(scheme),
		cem.WithShards(runtime.NumCPU()),
		cem.WithRunnerOptions(cem.WithParallelism(runtime.NumCPU())),
	)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipe.Run(ctx, records); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineSMPHepth(b *testing.B) {
	benchPipeline(b, cem.HEPTH, 0.25, cem.MatcherMLN, cem.SchemeSMP)
}
func BenchmarkPipelineSMPDblp(b *testing.B) {
	benchPipeline(b, cem.DBLP, 0.25, cem.MatcherMLN, cem.SchemeSMP)
}
func BenchmarkPipelineMMPDblp(b *testing.B) {
	benchPipeline(b, cem.DBLP, 0.25, cem.MatcherMLN, cem.SchemeMMP)
}

// BenchmarkPipelinePeopleRules is the people-cold benchmark workload's
// operation — a cold Pipeline.Run of the compiled people.rules program —
// as a testing.B, so `-cpuprofile` shows what that workload measures.
func BenchmarkPipelinePeopleRules(b *testing.B) {
	program := loadProgram(b, filepath.Join("testdata", "rules", "people.rules"))
	benchPipeline(b, cem.People, 0.7, program, cem.SchemeSMP)
}

// BenchmarkPipelineScaleHepth is a cold Pipeline.Run at HEPTH-like 8
// (seed 42, one blocking shard, one matching worker): the scale at which
// blocking's name similarity, not the matcher, is the question. Outside
// the timer it reports the run's name-kernel calls (last-name pairs plus
// spelled-out class pairs, NameTable.Scored), its candidate pairs, its
// cover entries (the sum of the neighborhood sizes), its largest
// neighborhood, and its scope entries (the candidate ids scoped into each
// neighborhood, summed over the cover). A run takes seconds and builds
// 0.25 GB, so -short skips it.
func BenchmarkPipelineScaleHepth(b *testing.B) {
	if testing.Short() {
		b.Skip("HEPTH-like 8 takes seconds a run")
	}
	records, err := cem.GenerateRecords(cem.HEPTH, 8, 42)
	if err != nil {
		b.Fatal(err)
	}
	pipe, err := cem.NewPipeline(cem.WithShards(1), cem.WithRunnerOptions(cem.WithParallelism(1)))
	if err != nil {
		b.Fatal(err)
	}
	var res *cem.PipelineResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err = pipe.Run(context.Background(), records); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	exp := res.Experiment
	scopes := exp.Table.PrepareCover(exp.Cover)
	entries, scoped := 0, 0
	for nb, set := range exp.Cover.Sets {
		entries += len(set)
		scoped += len(scopes.IDs(int32(nb)))
	}
	b.ReportMetric(float64(exp.Dataset.Names().Scored()), "kernel_calls")
	b.ReportMetric(float64(len(exp.Candidates)), "candidates")
	b.ReportMetric(float64(entries), "cover_entries")
	b.ReportMetric(float64(exp.Cover.MaxSize()), "max_set")
	b.ReportMetric(float64(scoped), "scope_entries")
}

// BenchmarkUpdateFold is the warm path without HTTP, journal or store: the
// serve-ingest benchmark workload's stream (DBLP-like 0.5, seed 42, in
// 32-record batches) folded through Pipeline.Update on a fresh pipeline
// per iteration. Besides time per batch it counts the work the batches'
// name tables did themselves — NameLevel kernel calls (scored) and names
// parsed — which a stream that extends its dataset pays once per class
// pair and once per record.
func BenchmarkUpdateFold(b *testing.B) {
	const batch = 32
	records, err := cem.GenerateRecords(cem.DBLP, 0.5, 42)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	batches := (len(records) + batch - 1) / batch
	scored, parsed := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe, err := cem.NewPipeline()
		if err != nil {
			b.Fatal(err)
		}
		var res *cem.PipelineResult
		for lo := 0; lo < len(records); lo += batch {
			if res, err = pipe.Update(ctx, res, records[lo:min(lo+batch, len(records))]); err != nil {
				b.Fatal(err)
			}
			names := res.Experiment.Dataset.Names()
			refs, pairs := names.Kept()
			scored += names.Scored() - pairs
			parsed += res.Records - refs
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N*batches), "ms/batch")
	b.ReportMetric(float64(scored)/float64(b.N), "scored/op")
	b.ReportMetric(float64(parsed)/float64(b.N), "parsed/op")
}

// BenchmarkReopen times what a restart pays for saved state: Pipeline.Reopen
// from a disk store, which builds the dataset and the blocking index over the
// records and seals the snapshot without a matcher call. Outside the timer
// each corpus (seed 42, one blocking shard) is streamed through Update in
// four batches and saved with SaveState; blob_bytes is the state blob the
// stream left. dblp-0.5 is the serve-ingest workload's corpus. hepth-8 takes
// seconds a reopen and a minute to stream, so -short skips it.
func BenchmarkReopen(b *testing.B) {
	for _, tc := range []struct {
		name  string
		kind  cem.DatasetKind
		scale float64
	}{{"dblp-0.5", cem.DBLP, 0.5}, {"hepth-1", cem.HEPTH, 1}, {"hepth-8", cem.HEPTH, 8}} {
		b.Run(tc.name, func(b *testing.B) {
			if testing.Short() && tc.scale > 1 {
				b.Skip("HEPTH-like 8 takes a minute to stream")
			}
			records, err := cem.GenerateRecords(tc.kind, tc.scale, 42)
			if err != nil {
				b.Fatal(err)
			}
			pipe, err := cem.NewPipeline(cem.WithShards(1))
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			var res *cem.PipelineResult
			const batches = 4
			for k := range batches {
				lo, hi := k*len(records)/batches, (k+1)*len(records)/batches
				if res, err = pipe.Update(ctx, res, records[lo:hi]); err != nil {
					b.Fatal(err)
				}
			}
			s, err := cem.OpenStore("disk", cem.WithStoreDir(filepath.Join(b.TempDir(), "store")))
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			if err := cem.SaveState(s, res, batches); err != nil {
				b.Fatal(err)
			}
			blob, err := s.OpenBlob(match.KindSnapshot, "latest")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := pipe.Reopen(ctx, records, s); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(blob)), "blob_bytes")
		})
	}
}

// BenchmarkSetup measures cover construction plus matcher grounding.
func BenchmarkSetup(b *testing.B) {
	d := cem.NewDataset(cem.HEPTH, 0.25, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cem.New(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrepareCover measures what a run pays to announce its cover to
// the built-in matchers, which share one candidate table: the MLN's
// preparation — the table's scoping of every neighborhood plus the MLN's
// interaction skeletons over it — and the rules matcher's after it, which
// finds the scoping done. HEPTH-like 0.5 is the hepth-cold workload's size;
// 4 is 12 k references and 2 M scoped ids. Preparing a cover twice is a
// no-op, so every iteration prepares a fresh Cover over the same
// neighborhoods.
func BenchmarkPrepareCover(b *testing.B) {
	for _, scale := range []float64{0.5, 4} {
		exp, err := cem.New(cem.NewDataset(cem.HEPTH, scale, 42))
		if err != nil {
			b.Fatal(err)
		}
		mlnM, rulesM := builtins(b, exp)
		fresh := func() *match.Cover {
			return &match.Cover{Sets: exp.Cover.Sets, NumEntities: exp.Cover.NumEntities}
		}
		b.Run(fmt.Sprintf("mln/hepth-%v", scale), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := fresh()
				b.StartTimer()
				mlnM.PrepareCover(c)
			}
		})
		b.Run(fmt.Sprintf("rules-after-mln/hepth-%v", scale), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := fresh()
				mlnM.PrepareCover(c)
				b.StartTimer()
				rulesM.PrepareCover(c)
			}
		})
	}
}
