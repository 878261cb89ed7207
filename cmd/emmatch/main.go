// Command emmatch runs one message-passing scheme with one matcher on a
// dataset (read from a TSV file produced by emgen, or generated on the
// fly) and prints the evaluation report. With -records it instead runs
// the full ingestion pipeline on a raw records file (emgen -records):
// blocking, cover construction, matching and evaluation in one pass.
// With -ingest it replays a STREAM of record batches through the
// incremental pipeline: the first batch runs cold, every further batch
// updates the blocking index in place and warm-starts the matcher from
// the previous result. With -state-dir DIR, a -records or -ingest run
// also saves its completed state into a disk store under DIR/store,
// which Pipeline.Reopen (and emserve on the same state directory)
// restarts from.
//
// Usage:
//
//	emmatch -in hepth.tsv -scheme mmp -matcher mln
//	emmatch -kind dblp -scale 0.5 -scheme smp -matcher rules -closure
//	emmatch -kind hepth -parallel 8 -progress
//	emmatch -records records.tsv -scheme smp -shards 4 -bcubed
//	emmatch -ingest day1.tsv,day2.tsv,day3.tsv -scheme smp -v
//	emmatch -records records.tsv -state-dir run2/
//	emmatch -kind hepth -backend sharded -backend-shards 4 -checkpoint-dir run1/
//	emmatch -kind hepth -scheme smp -checkpoint-dir run1/ -resume
//	emmatch -kind hepth -worker-addrs 127.0.0.1:7401,127.0.0.1:7402
//	emmatch -kind people -scale 0.25 -rules-file people.rules -scheme smp
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	cem "repro"
	"repro/internal/bib"
	"repro/internal/serve"
	"repro/match"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "emmatch: %v\n", err)
		os.Exit(1)
	}
}

// run is the testable entry point: it parses and validates flags against
// args and executes the selected mode, writing reports to stdout and
// progress to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("emmatch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in       = fs.String("in", "", "dataset TSV file (from emgen); empty to generate")
		records  = fs.String("records", "", "raw records TSV file (from emgen -records); runs the full pipeline")
		ingest   = fs.String("ingest", "", "comma-separated record TSV files replayed as an incremental stream")
		kind     = fs.String("kind", "hepth", "generated corpus kind: hepth | dblp | dblp-big | million | people")
		scale    = fs.Float64("scale", 0.5, "generated corpus scale")
		seed     = fs.Int64("seed", 42, "generation seed")
		scheme   = fs.String("scheme", "smp", "scheme: nomp | smp | mmp | full | ub")
		matcher  = fs.String("matcher", "mln", "matcher: "+strings.Join(cem.Matchers(), " | "))
		closure  = fs.Bool("closure", false, "apply transitive closure to the output before scoring")
		bcubed   = fs.Bool("bcubed", false, "also print the B-cubed cluster metric")
		parallel = fs.Int("parallel", 1, "concurrent neighborhood evaluations")
		shards   = fs.Int("shards", 0, "blocking shards for -records and -ingest (0 = one per CPU)")
		maxNbr   = fs.Int("max-neighborhood", 0, "canopy size bound for -records/-ingest (0 = unbounded)")
		backend  = fs.String("backend", "", "execution backend: pool | sharded (empty = default pool)")
		bShards  = fs.Int("backend-shards", 0, "in-process worker count for -backend sharded (0 = one per CPU)")
		wAddrs   = fs.String("worker-addrs", "", "comma-separated emworker addresses (host:port or unix:/path.sock) for the sharded backend's workers; implies -backend sharded")
		ckptDir  = fs.String("checkpoint-dir", "", "persist a checkpoint after every round to this directory")
		resume   = fs.Bool("resume", false, "continue the run from -checkpoint-dir instead of starting over")
		stateDir = fs.String("state-dir", "", "-records/-ingest save a reopenable state snapshot into a disk store under <dir>/store")
		rulesF   = fs.String("rules-file", "", "declarative rules program; compiles and registers it, selecting it as the matcher")
		progress = fs.Bool("progress", false, "print a line per neighborhood evaluation")
		verbose  = fs.Bool("v", false, "print run statistics")
		dump     = fs.String("dump-matches", "", "write the final match pairs (sorted, one per line) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *resume && *ckptDir == "" {
		return fmt.Errorf("-resume requires -checkpoint-dir")
	}
	if *rulesF != "" {
		name, err := cem.LoadRulesFile(*rulesF)
		if err != nil {
			return err
		}
		matcherSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "matcher" {
				matcherSet = true
			}
		})
		if matcherSet && *matcher != name {
			return fmt.Errorf("-rules-file program is named %q but -matcher asks for %q; drop -matcher or make the names agree", name, *matcher)
		}
		*matcher = name
	}
	if *bShards != 0 && *backend != "sharded" {
		return fmt.Errorf("-backend-shards requires -backend sharded (got -backend %q)", *backend)
	}
	if *wAddrs != "" && *backend != "" && *backend != "sharded" {
		return fmt.Errorf("-worker-addrs requires -backend sharded (got -backend %q)", *backend)
	}
	if *wAddrs != "" && *bShards != 0 {
		return fmt.Errorf("-backend-shards counts in-process workers; -worker-addrs attaches one worker per address: give one of them")
	}
	modes := 0
	for _, m := range []string{*in, *records, *ingest} {
		if m != "" {
			modes++
		}
	}
	if modes > 1 {
		return fmt.Errorf("-in, -records and -ingest are mutually exclusive")
	}
	if *stateDir != "" && *records == "" && *ingest == "" {
		return fmt.Errorf("-state-dir saves the state of a -records or -ingest run; a -kind/-in run has none to save")
	}
	if (*shards != 0 || *maxNbr != 0) && *records == "" && *ingest == "" {
		return fmt.Errorf("-shards and -max-neighborhood configure the blocking of a -records or -ingest run; a -kind/-in run uses the experiment's cover")
	}
	if *ingest != "" && *resume {
		return fmt.Errorf("-ingest replays a fresh stream; it cannot be combined with -resume")
	}
	if s := cem.Scheme(*scheme); (s == cem.SchemeFull || s == cem.SchemeUB) && *stateDir+*ingest != "" {
		return fmt.Errorf("-state-dir and -ingest keep a run's round state; -scheme %s has none", *scheme)
	}

	opts := []cem.RunnerOption{cem.WithParallelism(*parallel)}
	if *wAddrs != "" {
		addrs := strings.Split(*wAddrs, ",")
		for i := range addrs {
			addrs[i] = strings.TrimSpace(addrs[i])
		}
		opts = append(opts, cem.WithBackend(cem.NewShardedNetBackend(0, addrs...)))
	} else {
		switch *backend {
		case "", "pool":
		case "sharded":
			opts = append(opts, cem.WithShardCount(*bShards))
		default:
			return fmt.Errorf("unknown backend %q (want pool or sharded)", *backend)
		}
	}
	if *ckptDir != "" {
		opts = append(opts, cem.WithCheckpointDir(*ckptDir))
	}
	var st match.Store
	if *stateDir != "" {
		var err error
		if st, err = cem.OpenStore("disk", cem.WithStoreDir(filepath.Join(*stateDir, "store"))); err != nil {
			return err
		}
		defer st.Close()
	}
	if *closure {
		opts = append(opts, cem.WithTransitiveClosure())
	}
	if *progress {
		opts = append(opts, cem.WithProgress(func(e match.ProgressEvent) {
			fmt.Fprintf(stderr, "%s: round %d, neighborhood %d, %d evaluations, %d matches\n",
				e.Scheme, e.Round, e.Neighborhood, e.Evaluations, e.Matches)
		}))
	}

	pcfg := pipelineConfig{
		scheme: *scheme, matcher: *matcher, shards: *shards, maxNbr: *maxNbr,
		bcubed: *bcubed, verbose: *verbose, resume: *resume, runnerOpts: opts,
		store: st,
	}
	if *ingest != "" {
		return runIngest(strings.Split(*ingest, ","), pcfg, stdout)
	}
	if *records != "" {
		return runPipeline(*records, pcfg, stdout)
	}

	var d *bib.Dataset
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		var rerr error
		d, rerr = bib.Read(f)
		f.Close()
		if rerr != nil {
			return rerr
		}
	} else {
		var err error
		d, err = cem.GenerateDataset(cem.DatasetKind(*kind), *scale, *seed)
		if err != nil {
			return err
		}
	}

	exp, err := cem.New(d)
	if err != nil {
		return err
	}
	runner, err := exp.Runner(*matcher, opts...)
	if err != nil {
		return err
	}
	var res *cem.Result
	if *resume {
		res, err = runner.Resume(context.Background(), cem.Scheme(*scheme))
	} else {
		res, err = runner.Run(context.Background(), cem.Scheme(*scheme))
	}
	if err != nil {
		return err
	}
	report := exp.Evaluate(res)
	fmt.Fprintf(stdout, "dataset %s: %s\n", d.Name, d.ComputeStats())
	fmt.Fprintf(stdout, "cover: %s\n", exp.Cover.ComputeStats())
	fmt.Fprintln(stdout, report)
	if *bcubed {
		fmt.Fprintf(stdout, "B³:    %v\n", exp.EvaluateBCubed(res))
	}
	if *verbose {
		fmt.Fprintf(stdout, "stats: %s\n", res.Stats)
	}
	if *dump != "" {
		if err := dumpMatches(*dump, res.Matches); err != nil {
			return err
		}
	}
	return nil
}

// dumpMatches writes the final match set in the canonical fixture form:
// a count header plus one sorted "a b" pair per line. Two runs agree iff
// their dump files are byte-identical — the contract chaos-smoke checks
// across process boundaries.
func dumpMatches(path string, matches match.PairSet) error {
	var b strings.Builder
	pairs := matches.Sorted()
	fmt.Fprintf(&b, "# %d matches\n", len(pairs))
	for _, p := range pairs {
		fmt.Fprintf(&b, "%d %d\n", p.A, p.B)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// pipelineConfig bundles the pipeline-mode options shared by -records
// and -ingest.
type pipelineConfig struct {
	scheme, matcher string
	shards, maxNbr  int
	bcubed, verbose bool
	resume          bool
	runnerOpts      []cem.RunnerOption
	store           match.Store
}

// newPipeline assembles the pipeline both modes run on.
func (c pipelineConfig) newPipeline(name string) (*cem.Pipeline, error) {
	return cem.NewPipeline(
		cem.WithDatasetName(name),
		cem.WithMatcher(c.matcher),
		cem.WithScheme(cem.Scheme(c.scheme)),
		cem.WithShards(c.shards),
		cem.WithMaxNeighborhood(c.maxNbr),
		cem.WithRunnerOptions(c.runnerOpts...),
	)
}

// report prints one pipeline result.
func (c pipelineConfig) report(w io.Writer, label string, res *cem.PipelineResult) {
	fmt.Fprintf(w, "%s: %d records, %d matches (blocking %v, matching %v)\n",
		label, res.Records, res.Matches.Len(), res.BlockingTime, res.MatchingTime)
	fmt.Fprintf(w, "cover: %s\n", res.Experiment.Cover.ComputeStats())
	if res.Labeled {
		fmt.Fprintln(w, *res.Report)
		if c.bcubed {
			fmt.Fprintf(w, "B³:    %v\n", *res.BCubed)
		}
	} else {
		fmt.Fprintln(w, "(unlabeled records: no metrics)")
	}
	if c.verbose {
		fmt.Fprintf(w, "stats: %s\n", res.Stats)
	}
}

// readRecordsFile loads one raw records TSV.
func readRecordsFile(path string) (string, []cem.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", nil, err
	}
	defer f.Close()
	name, recs, err := cem.ReadRecords(f)
	if err != nil {
		return "", nil, fmt.Errorf("%s: %w", path, err)
	}
	if name == "" {
		name = path
	}
	return name, recs, nil
}

// runPipeline is the -records path: raw records → blocking → matching →
// metrics through the public Pipeline API.
func runPipeline(path string, cfg pipelineConfig, stdout io.Writer) error {
	name, recs, err := readRecordsFile(path)
	if err != nil {
		return err
	}
	pipe, err := cfg.newPipeline(name)
	if err != nil {
		return err
	}
	var res *cem.PipelineResult
	if cfg.resume {
		res, err = pipe.Resume(context.Background(), recs)
	} else {
		res, err = pipe.Run(context.Background(), recs)
	}
	if err != nil {
		return err
	}
	if cfg.store != nil {
		if err := cem.SaveState(cfg.store, res, 1); err != nil {
			return err
		}
	}
	cfg.report(stdout, "records "+name, res)
	return nil
}

// runIngest is the -ingest path: the record batches are replayed as an
// incremental stream through the service's commit path (serve.Committer
// over Pipeline.Update — delta blocking plus warm-started matching), so
// the CLI replay and emserve's serving semantics cannot drift. One
// report is printed per batch, annotated with whether the batch
// warm-started or forced a full re-run; -v appends the stream's
// cumulative counters, as the committer's metrics counted them.
func runIngest(paths []string, cfg pipelineConfig, stdout io.Writer) error {
	var committer *serve.Committer
	m := serve.NewMetrics()
	for i, path := range paths {
		path = strings.TrimSpace(path)
		if path == "" {
			return fmt.Errorf("-ingest: empty batch path at position %d", i+1)
		}
		name, recs, err := readRecordsFile(path)
		if err != nil {
			return err
		}
		if committer == nil {
			pipe, err := cfg.newPipeline(name)
			if err != nil {
				return err
			}
			copts := []serve.CommitterOption{serve.WithMetrics(m)}
			if cfg.store != nil {
				copts = append(copts, serve.WithStore(cfg.store))
			}
			if committer, err = serve.NewCommitter(pipe, copts...); err != nil {
				return err
			}
		}
		state, err := committer.Apply(context.Background(), recs)
		if err != nil {
			return fmt.Errorf("batch %d (%s): %w", i+1, path, err)
		}
		res := state.Result
		mode := "cold"
		switch {
		case res.WarmStarted:
			mode = "warm"
		case res.ForcedRerun:
			mode = "full re-run (non-additive delta)"
		}
		cfg.report(stdout, fmt.Sprintf("batch %d/%d %s [%s]", i+1, len(paths), path, mode), res)
	}
	if cfg.verbose && committer != nil {
		fmt.Fprintf(stdout, "cumulative: %d updates (%d cold, %d warm, %d forced), %d matcher calls over %d records\n",
			m.CommittedBatches.Value(), m.UpdatesCold.Value(), m.UpdatesWarm.Value(), m.UpdatesForced.Value(),
			m.MatcherCalls.Value(), m.CommittedRecords.Value())
		hits, invals := m.MemoHits.Value(), m.MemoInvals.Value()
		if lookups := hits + m.MemoMisses.Value() + invals; lookups > 0 {
			fmt.Fprintf(stdout, "verdict memo: %d hits / %d lookups (%.0f%% hit rate, %d invalidations)\n",
				hits, lookups, 100*float64(hits)/float64(lookups), invals)
		}
	}
	return nil
}
