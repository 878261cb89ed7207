package cem

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/bib"
	"repro/internal/canopy"
	"repro/internal/core"
	"repro/match"
)

// Pipeline is the end-to-end ingestion→blocking→matching→evaluation
// path: raw records in, matches (and metrics, when gold labels are
// supplied) out. It synthesizes a dataset from the records, runs q-gram
// canopy blocking on a sharded worker pool (output identical to serial
// for every shard count), constructs the total cover with the paper's
// size/overlap bounds, executes the configured scheme with any
// registered matcher through the Runner, and scores the result.
//
// Build with NewPipeline. A Pipeline is immutable after construction:
// it keeps no state across calls, so it is safe for concurrent
// Run/Update calls, and everything a call produced — matches, run
// statistics, the streaming state the next Update continues — is in its
// PipelineResult. A caller that wants a stream's totals sums the
// results' Stats (the online service counts them in its metrics).
type Pipeline struct {
	name       string
	blocking   CanopyConfig
	maxNbr     int
	maxNbrSet  bool
	shards     int
	matcher    string
	scheme     Scheme
	runnerOpts []RunnerOption
}

// PipelineOption customizes a Pipeline.
type PipelineOption func(*Pipeline)

// WithBlocking overrides the blocking configuration (canopy thresholds,
// q-gram size, relational context bounds). Start from
// DefaultOptions().Canopy. The configuration is validated by
// NewPipeline.
func WithBlocking(c CanopyConfig) PipelineOption {
	return func(p *Pipeline) { p.blocking = c }
}

// WithShards scores blocking's canopies on n worker shards, in a cold run
// and in every Update of its stream. The constructed cover is
// byte-identical for every shard count; shards only buy wall clock. n = 0
// (the default) means one shard per CPU; negative counts are rejected by
// NewPipeline. Scoring keeps a counter per distinct name for each shard,
// so bound n explicitly on very large corpora.
func WithShards(n int) PipelineOption {
	return func(p *Pipeline) { p.shards = n }
}

// WithMaxNeighborhood bounds every canopy core to at most k records (the
// seed plus its k-1 most similar neighbors): the paper's "sizes of
// neighborhoods are bounded" regime, which trades per-neighborhood
// matcher cost for message traffic. k = 0 removes the bound. The bound
// composes with WithBlocking in either order.
func WithMaxNeighborhood(k int) PipelineOption {
	return func(p *Pipeline) { p.maxNbr, p.maxNbrSet = k, true }
}

// WithMatcher selects the registered matcher the pipeline runs
// ("mln", "rules", or any name passed to RegisterMatcher). Default: mln.
func WithMatcher(name string) PipelineOption {
	return func(p *Pipeline) { p.matcher = name }
}

// WithScheme selects the execution scheme. Default: SMP.
func WithScheme(s Scheme) PipelineOption {
	return func(p *Pipeline) { p.scheme = s }
}

// WithRunnerOptions forwards options to the underlying Runner
// (parallelism, progress, stats, transitive closure, order, negative
// evidence).
func WithRunnerOptions(opts ...RunnerOption) PipelineOption {
	return func(p *Pipeline) { p.runnerOpts = append(p.runnerOpts, opts...) }
}

// WithDatasetName names the synthesized dataset (for reports and logs).
func WithDatasetName(name string) PipelineOption {
	return func(p *Pipeline) { p.name = name }
}

// NewPipeline builds a Pipeline, validating the configuration: the
// blocking thresholds must be well-formed and the shard count
// non-negative. The matcher name is resolved at Run time against the
// registry.
func NewPipeline(opts ...PipelineOption) (*Pipeline, error) {
	p := &Pipeline{
		name:     "records",
		blocking: DefaultOptions().Canopy,
		matcher:  MatcherMLN,
		scheme:   SchemeSMP,
	}
	for _, o := range opts {
		o(p)
	}
	if p.maxNbrSet {
		p.blocking.MaxNeighborhood = p.maxNbr
	}
	if err := p.blocking.Validate(); err != nil {
		return nil, fmt.Errorf("cem: pipeline blocking config: %w", err)
	}
	if p.shards < 0 {
		return nil, fmt.Errorf("cem: pipeline shards = %d, want >= 0", p.shards)
	}
	if p.matcher == "" {
		return nil, fmt.Errorf("cem: pipeline matcher name is empty")
	}
	switch p.scheme {
	case SchemeNoMP, SchemeSMP, SchemeMMP, SchemeFull, SchemeUB:
	default:
		return nil, fmt.Errorf("cem: pipeline scheme %q unknown", p.scheme)
	}
	return p, nil
}

// PipelineResult is the outcome of one Pipeline run: the scheme result
// plus the fully wired Experiment (for further runs and custom
// evaluation), stage timings, and — when every record was labeled —
// pairwise and B-cubed metrics.
type PipelineResult struct {
	*Result
	// Experiment is the wired instance the run executed on; use it for
	// further Runner builds, evaluation against references, or cover
	// inspection (Experiment.Cover.ComputeStats()).
	Experiment *Experiment
	// Records is the number of ingested records.
	Records int
	// Labeled reports whether every record carried a gold label; the
	// metric fields below are nil otherwise.
	Labeled bool
	// Report holds pairwise precision/recall/F1 against the gold labels.
	Report *Report
	// BCubed holds the per-entity cluster metric against the gold labels.
	BCubed *PRF
	// BlockingTime is the wall time of everything before the scheme runs:
	// dataset synthesis, cover construction, candidate enumeration and
	// matcher grounding. MatchingTime is the wall time of the scheme run,
	// so the two add up to the call's wall but for metric evaluation.
	BlockingTime time.Duration
	MatchingTime time.Duration

	// WarmStarted reports whether the matching stage ran as an
	// incremental continuation (Update's fast path): seeded with the
	// prior evidence and limited to the delta's affected neighborhoods.
	// False for Run, for a first batch, and for forced full re-runs.
	WarmStarted bool
	// ForcedRerun reports that Update detected a non-additive delta —
	// ingestion rearranged existing neighborhoods instead of only
	// growing them — and fell back to a full cold run to preserve
	// equivalence with from-scratch matching.
	ForcedRerun bool

	// index is the blocking state of Experiment.Dataset's records — the
	// carry-over Update needs to ingest the next batch incrementally. Its
	// configuration is the one that produced this result: a prior built
	// under a DIFFERENT blocking config cannot seed a warm start (its
	// evidence is another cover's fixpoint), so Update forces a cold run
	// for it.
	index *canopy.Index
}

// Run executes the pipeline on the given records. The context cancels
// both the blocking stage (between canopy probes) and the matching stage
// (between neighborhood evaluations).
func (p *Pipeline) Run(ctx context.Context, records []Record) (*PipelineResult, error) {
	return p.run(ctx, records, false)
}

// Resume re-runs the pipeline on the same records but continues the
// matching stage from the checkpoint trail configured via
// WithRunnerOptions(WithCheckpointDir(dir)) — the recovery path for a
// pipeline killed mid-matching. Blocking is deterministic for any shard
// count, so re-running it reconstructs the identical cover the trail
// was written against; the matching stage then picks up at the first
// unfinished round.
func (p *Pipeline) Resume(ctx context.Context, records []Record) (*PipelineResult, error) {
	return p.run(ctx, records, true)
}

func (p *Pipeline) run(ctx context.Context, records []Record, resume bool) (*PipelineResult, error) {
	if len(records) == 0 {
		return nil, fmt.Errorf("cem: pipeline: no records")
	}
	raw, labeled := toBibRecords(records)
	start := time.Now()
	d, err := bib.DatasetFromRecords(p.name, raw)
	if err != nil {
		return nil, fmt.Errorf("cem: pipeline: %w", err)
	}
	index, err := canopy.BuildIndex(ctx, d, p.blocking, p.shards)
	if err != nil {
		return nil, err
	}

	exp, runner, err := p.build(d, index.Cover(), nil)
	if err != nil {
		return nil, err
	}
	blockingTime := time.Since(start)
	start = time.Now()
	var res *Result
	if resume {
		res, err = runner.Resume(ctx, p.scheme)
	} else {
		res, err = runner.Run(ctx, p.scheme)
	}
	if err != nil {
		return nil, err
	}
	return p.result(&PipelineResult{
		Result:       res,
		Experiment:   exp,
		BlockingTime: blockingTime,
		MatchingTime: time.Since(start),
		index:        index,
	}, labeled), nil
}

// build makes the experiment and its runner for a dataset under the
// cover blocking produced — the one place a run, an update and a reopen
// turn the pipeline's configuration into something executable. cands are
// the cover's candidates when the caller has them, else nil.
func (p *Pipeline) build(d *bib.Dataset, cover *core.Cover, cands []match.Candidate) (*Experiment, *Runner, error) {
	exp, err := setup(d, Options{Canopy: p.blocking}, cover, cands)
	if err != nil {
		return nil, nil, err
	}
	runner, err := exp.Runner(p.matcher, p.runnerOpts...)
	return exp, runner, err
}

// result completes the outcome of one call: record count, and metrics when
// every record is labeled.
func (p *Pipeline) result(out *PipelineResult, labeled bool) *PipelineResult {
	out.Records, out.Labeled = out.Experiment.Dataset.NumRefs(), labeled
	if labeled {
		report := out.Experiment.Evaluate(out.Result)
		bcubed := out.Experiment.EvaluateBCubed(out.Result)
		out.Report = &report
		out.BCubed = &bcubed
	}
	return out
}

// Update ingests a batch of new records on top of a prior result — the
// incremental execution path. The blocking stage is updated in place
// (canopy.Index.Add scores only the arriving batch against the q-gram
// index and re-emits the cover, byte-identical to a scratch rebuild).
// When the delta is additive and the prior's own index advanced, the
// candidate table is carried: the prior's candidates merged with the pairs
// of the changed neighborhoods, the same table enumerating the whole cover
// gives. The matching stage is warm-started from the prior run's evidence
// and outstanding maximal messages with an initial active set limited to
// the neighborhoods the delta touched: changed or new cover sets, sets
// containing a new entity or one of its coauthors, and sets reached by
// candidate pairs the delta introduced. Everything else stays at its
// prior fixpoint unless a new match re-activates it.
//
// prior == nil runs the first batch cold, as Run does, so a fold of Update
// over a record stream is the canonical ingestion loop; a prior from Run
// or Update carries its blocking index, which scores the arrivals on the
// pipeline's shards. Updates from the same prior may run concurrently or
// fork a stream: the index advance is atomic, and a branch that lost the
// race (or holds a stale prior) transparently rebuilds its own blocking
// state from the prior's dataset. For the built-in
// (delta-monotone, well-behaved) matchers the result after every batch
// is identical to a cold Run over all records ingested so far — the
// property the incremental differential harness pins — at a fraction of
// the matcher calls. Metrics are computed only when every ingested
// record is labeled; unlabeled streams skip them without error. Schemes
// without round structure (FULL, UB) have no incremental path.
//
// A prior produced under a different blocking configuration, matcher or
// scheme is detected (its evidence is another run's fixpoint) and likewise
// forces a cold run; runner options are NOT fingerprinted — hand a prior
// only to Pipelines sharing them.
func (p *Pipeline) Update(ctx context.Context, prior *PipelineResult, newRecords []Record) (*PipelineResult, error) {
	if len(newRecords) == 0 {
		return nil, fmt.Errorf("cem: pipeline update: no new records")
	}
	if coreScheme(p.scheme) == "" {
		return nil, fmt.Errorf("cem: pipeline update: scheme %q has no incremental path", p.scheme)
	}

	if prior == nil {
		return p.run(ctx, newRecords, false)
	}
	if prior.index == nil {
		return nil, fmt.Errorf("cem: pipeline update: prior result carries no ingestion state (was it produced by this Pipeline?)")
	}

	start := time.Now()
	before := prior.Experiment.Dataset
	base := before.NumRefs()
	raw, labeled := toBibRecords(newRecords)
	d, err := before.Extend(p.name, raw)
	if err != nil {
		return nil, fmt.Errorf("cem: pipeline update: %w", err)
	}
	index, same := prior.index, prior.index.Config() == p.blocking
	var cover *core.Cover
	var delta *canopy.Delta
	if same {
		cover, delta, err = index.AddFrom(ctx, d, base)
	}
	if !same || errors.Is(err, canopy.ErrStale) {
		// The prior's index was built under another blocking configuration
		// (the prior came through another Pipeline), or another Update
		// advanced it past this prior (a forked or concurrent stream):
		// rebuild this branch's blocking state from the prior's dataset.
		if index, err = p.rebuildIndex(ctx, before); err == nil {
			cover, delta, err = index.AddFrom(ctx, d, base)
		}
	}
	if err != nil {
		return nil, err
	}

	// The candidate table is carried when this batch only grew the prior's
	// own cover: the prior's candidates plus the pairs of the changed sets.
	// Sharing the prior's index means sharing its blocking config. A rebuilt
	// or foreign index, or a non-additive delta, enumerates the whole cover.
	var cands []match.Candidate
	if index == prior.index && delta.Additive {
		cands = canopy.CarriedCandidatePairs(d, cover, prior.Experiment.Candidates, delta.Changed)
	}
	exp, runner, err := p.build(d, cover, cands)
	if err != nil {
		return nil, err
	}
	blockingTime := time.Since(start)

	start = time.Now()
	// A cold run unless the prior's evidence is a fixpoint this run can
	// continue: when the delta rearranged existing neighborhoods (a
	// total-cover boundary member moved, shrinking some set relative to its
	// predecessor), or when the prior came from another blocking
	// configuration, matcher or scheme, prior evidence is no longer
	// guaranteed to be re-derivable from scratch, so a full cold run is
	// forced. The streaming blocking state still carries over —
	// later additive batches warm-start again.
	warm := delta.Additive && same &&
		prior.Matcher == p.matcher && prior.Scheme == coreScheme(p.scheme)
	var seed *core.WarmStart
	if warm {
		seed = &core.WarmStart{
			Evidence: slices.Collect(maps.Keys(prior.evidence())),
			Messages: prior.Messages,
			Active:   affectedByDelta(exp, prior.Experiment, delta),
		}
	}
	res, err := runner.run(ctx, p.scheme, seed, false)
	if err != nil {
		return nil, err
	}

	return p.result(&PipelineResult{
		Result:       res,
		Experiment:   exp,
		BlockingTime: blockingTime,
		MatchingTime: time.Since(start),
		WarmStarted:  warm,
		ForcedRerun:  !warm,
		index:        index,
	}, labeled && prior.Labeled), nil
}

// rebuildIndex builds a private blocking index over the records of d, a
// prior's dataset, on a copy of d, so that no name level it scores is
// written into the prior's table.
func (p *Pipeline) rebuildIndex(ctx context.Context, d *bib.Dataset) (*canopy.Index, error) {
	own, err := d.Extend(p.name, nil)
	if err != nil {
		return nil, err
	}
	return canopy.BuildIndex(ctx, own, p.blocking, p.shards)
}

// affectedByDelta assembles the warm-start active seed: the cover ids an
// ingested delta may have invalidated. Changed covers membership shifts,
// AffectedEntities covers scope/boundary contact with the new entities,
// and the candidate diff covers neighborhoods of old entities whose
// in-scope variable set grew because a changed set co-located an old
// pair for the first time (the candidate universe is cover-derived, so
// a new set can add variables to an unchanged one).
func affectedByDelta(exp, old *Experiment, delta *canopy.Delta) []int32 {
	rel := exp.Dataset.Coauthor()
	// Both tables are in ascending pair order and entity ids are stable
	// across batches, so the new candidates fall out of one merge walk.
	var newPairs []match.Pair
	was := old.Table.Pairs()
	for _, p := range exp.Table.Pairs() {
		for len(was) > 0 && was[0].Key() < p.Key() {
			was = was[1:]
		}
		if len(was) == 0 || was[0] != p {
			newPairs = append(newPairs, p)
		}
	}
	seen := make([]bool, exp.Cover.Len())
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
	slices.Sort(out)
	return out
}
