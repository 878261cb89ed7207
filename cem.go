// Package cem (Collective Entity Matching) is the public face of this
// repository: a from-scratch Go reproduction of "Large-Scale Collective
// Entity Matching" (Rastogi, Dalvi, Garofalakis; PVLDB 4(4), 2011).
//
// The paper's contribution is a framework that scales ANY black-box
// collective entity matcher by running it on small overlapping
// neighborhoods (a total cover) and passing messages between them:
//
//   - NO-MP  — independent neighborhood runs (baseline),
//   - SMP    — simple message passing (Algorithm 1): found matches flow
//     between neighborhoods as positive evidence,
//   - MMP    — maximal message passing (Algorithms 2–3): neighborhoods
//     additionally exchange all-or-nothing sets of correlated
//     pairs, recovering matches no single neighborhood can make,
//   - FULL   — the matcher on the whole dataset (reference, when feasible),
//   - UB     — a ground-truth-conditioned upper bound on the full run.
//
// The engine is generic over the matcher: implementations of the
// interfaces in repro/match plug in through RegisterMatcher, with no
// access to internal packages required. Two collective matchers ship as
// built-ins — "mln", the Markov-Logic matcher of Singla & Domingos with
// the paper's Appendix B rules and exact graph-cut MAP inference, and
// "rules", a Dedupalog-style monotone rule program. Synthetic
// bibliography generators reproduce the statistical regimes of the
// paper's HEPTH, DBLP and DBLP-BIG corpora.
//
// Quick start:
//
//	ds := cem.NewDataset(cem.HEPTH, 0.5, 42)
//	exp, err := cem.New(ds)
//	runner, err := exp.Runner("mln", cem.WithParallelism(runtime.NumCPU()))
//	res, err := runner.Run(ctx, cem.SchemeMMP)
//	fmt.Println(exp.Evaluate(res))
//
// Custom matchers register once (typically from an init function) and
// are then available to every Experiment:
//
//	cem.RegisterMatcher("mine", func(mc cem.MatcherContext) (match.Matcher, error) {
//		return myMatcher{cands: mc.Candidates}, nil
//	})
//
// Runs accept a context.Context for cancellation and deadlines. NO-MP,
// SMP and MMP all run on one round engine — evaluate the active
// neighborhoods, reduce the new evidence centrally, re-activate the
// affected ones, stop at the fixpoint — and a Backend only decides where
// each round's evaluations run: the shared-memory pool
// (WithParallelism) by default, or whatever WithBackend names — the
// sharded workers (WithShardCount, or NewShardedNetBackend with emworker
// addresses). None of them changes the output (consistency, Theorems 2
// and 4).
package cem

import (
	"fmt"
	"sync"

	"repro/internal/bib"
	"repro/internal/canopy"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/unionfind"
	"repro/match"
)

// DatasetKind selects one of the paper's three corpus regimes.
type DatasetKind string

const (
	// HEPTH mimics the KDD-Cup 2003 high-energy-physics corpus:
	// abbreviated author names, few large neighborhoods.
	HEPTH DatasetKind = "hepth"
	// DBLP mimics the paper's mutated-DBLP corpus: full names with typo
	// noise, many small neighborhoods.
	DBLP DatasetKind = "dblp"
	// DBLPBig is the DBLP regime at grid scale (§6.3).
	DBLPBig DatasetKind = "dblp-big"
	// Million is the DBLP regime sized to ~1M references at scale 1.0 —
	// the scale corpus for runs beyond the benchmark sizes.
	Million DatasetKind = "million"
	// People is the second end-to-end domain: household-snapshot person
	// dedup over typed-field composite keys (name | street | phone |
	// zip), with households as the co-occurrence relation. Match it with
	// a declarative rules file (see RegisterRuleProgram) rather than the
	// bibliographic built-ins.
	People DatasetKind = "people"
)

// Scheme selects the execution scheme.
type Scheme string

const (
	SchemeNoMP Scheme = "nomp"
	SchemeSMP  Scheme = "smp"
	SchemeMMP  Scheme = "mmp"
	SchemeFull Scheme = "full"
	SchemeUB   Scheme = "ub"
)

// Registry names of the built-in matchers.
const (
	// MatcherMLN is the Type-II probabilistic Markov-Logic matcher.
	MatcherMLN = "mln"
	// MatcherRules is the Type-I Dedupalog*-style matcher.
	MatcherRules = "rules"
)

// CanopyConfig controls cover construction (canopy thresholds and the
// relational boundary absorbed into each neighborhood). Aliased here so
// external modules can name it without importing internal packages.
type CanopyConfig = canopy.Config

// Report is one evaluated run: pairwise precision/recall/F1 against
// ground truth plus framework-level soundness/completeness. Aliased so
// external modules can name evaluation results without importing
// internal packages.
type Report = eval.Report

// PRF holds precision, recall and F1 (pairwise or B-cubed).
type PRF = eval.PRF

// Options is the experiment configuration the functional Option helpers
// of New edit; matcher factories read it from MatcherContext.
type Options struct {
	// Canopy controls cover construction.
	Canopy CanopyConfig
}

// DefaultOptions returns the paper's configuration: default canopies. The
// built-in matchers always ground the paper's Appendix B programs — the
// MLN weights and the RULES program; another program registers a matcher
// of its own (RegisterRuleProgram, RegisterMatcher).
func DefaultOptions() Options {
	return Options{Canopy: canopy.DefaultConfig()}
}

// Option customizes experiment construction (New).
type Option func(*Options)

// WithCanopy overrides the cover-construction configuration (start
// from DefaultOptions().Canopy).
func WithCanopy(c CanopyConfig) Option {
	return func(o *Options) { o.Canopy = c }
}

// NewDataset generates a synthetic corpus of the given kind. Scale 1.0 is
// a workstation-sized instance (thousands of references); larger scales
// approach the paper's corpus sizes. Generation is deterministic in seed.
// Panics on an unknown kind; GenerateDataset is the error-returning
// variant.
func NewDataset(kind DatasetKind, scale float64, seed int64) *match.Dataset {
	d, err := GenerateDataset(kind, scale, seed)
	if err != nil {
		panic(err.Error())
	}
	return d
}

// GenerateDataset generates a synthetic corpus of the given kind,
// reporting unknown kinds and generation failures as errors.
func GenerateDataset(kind DatasetKind, scale float64, seed int64) (*match.Dataset, error) {
	if kind == People {
		if err := datagen.ValidateScale(scale); err != nil {
			return nil, fmt.Errorf("cem: %w", err)
		}
		recs, err := datagen.GeneratePeople(datagen.PeopleLike(scale, seed))
		if err != nil {
			return nil, err
		}
		return bib.DatasetFromRecords("people-like", recs)
	}
	cfg, err := datagenConfig(kind, scale, seed)
	if err != nil {
		return nil, err
	}
	return datagen.Generate(cfg)
}

// datagenConfig maps a dataset kind to its generator preset. The scale
// is validated here — the one choke point every generation path (CLI
// flags included) goes through — so NaN and non-positive scales fail
// loudly instead of silently collapsing to one-reference corpora.
func datagenConfig(kind DatasetKind, scale float64, seed int64) (datagen.Config, error) {
	if err := datagen.ValidateScale(scale); err != nil {
		return datagen.Config{}, fmt.Errorf("cem: %w", err)
	}
	switch kind {
	case HEPTH:
		return datagen.HEPTHLike(scale, seed), nil
	case DBLP:
		return datagen.DBLPLike(scale, seed), nil
	case DBLPBig:
		return datagen.DBLPBigLike(scale, seed), nil
	case Million:
		return datagen.MillionLike(scale, seed), nil
	default:
		return datagen.Config{}, fmt.Errorf("cem: unknown dataset kind %q", kind)
	}
}

// Experiment is a fully wired instance: dataset, total cover, candidate
// pairs and their table (Candidates[i] is the table's pair i); ground
// truth is the dataset's labels. Matchers are ground over the table on the
// first Runner that names them; Runner.Matcher returns the instance. Build
// one with New.
type Experiment struct {
	Dataset    *match.Dataset
	Cover      *core.Cover
	Candidates []match.Candidate
	Table      *match.CandidateTable

	opts  Options
	truth func() match.PairSet // truthOf(Dataset), built on first use

	mu    sync.Mutex
	built map[string]match.Matcher // lazily built registry matchers
}

// New builds the total cover (canopies + Coauthor boundary) and derives the
// candidate pairs. Matchers, built-in or registered, are ground lazily, on
// the first Runner that names them.
func New(d *match.Dataset, options ...Option) (*Experiment, error) {
	opts := DefaultOptions()
	for _, o := range options {
		o(&opts)
	}
	if err := opts.Canopy.Validate(); err != nil {
		return nil, fmt.Errorf("cem: %w", err)
	}
	return setup(d, opts, nil, nil)
}

// setup wires an experiment, building the cover from opts.Canopy unless
// a prebuilt one is supplied (the Pipeline path, which constructs its
// cover sharded and under a context), and enumerating the cover's
// candidates unless they are supplied (Update's, carried across an
// additive batch).
func setup(d *match.Dataset, opts Options, cover *core.Cover, cands []match.Candidate) (*Experiment, error) {
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("cem: invalid dataset: %w", err)
	}
	if cover == nil {
		cover = canopy.BuildCover(d, opts.Canopy)
	}
	// The one candidate table of the experiment: blocking's pairs,
	// validated here and handed to every matcher factory by reference.
	if cands == nil {
		cands = canopy.CandidatePairs(d, cover)
	}
	table, cands, err := tableOf(d, cands)
	if err != nil {
		return nil, fmt.Errorf("cem: %w", err)
	}

	return &Experiment{
		Dataset:    d,
		Cover:      cover,
		Candidates: cands,
		Table:      table,
		opts:       opts,
		truth:      sync.OnceValue(func() match.PairSet { return truthOf(d) }),
		built:      map[string]match.Matcher{},
	}, nil
}

// Truth returns the ground-truth matches, d.TruePairs as one PairSet, built
// on the first call. Evaluation does not need it: it counts from the labels.
func (e *Experiment) Truth() match.PairSet { return e.truth() }

// truthOf is d.TruePairs as one PairSet: the labeled references are grouped
// by author, and the Σ C(k, 2) pairs of the groups go into a set sized to
// hold them.
func truthOf(d *match.Dataset) match.PairSet {
	byAuthor := map[bib.AuthorID][]match.EntityID{}
	for i := range d.Refs {
		if t := d.Refs[i].True; t >= 0 {
			byAuthor[t] = append(byAuthor[t], match.EntityID(i))
		}
	}
	pairs := 0
	for _, refs := range byAuthor {
		pairs += len(refs) * (len(refs) - 1) / 2
	}
	truth := make(match.PairSet, pairs)
	for _, refs := range byAuthor {
		for i, a := range refs {
			for _, b := range refs[i+1:] {
				truth.Add(match.Pair{A: a, B: b})
			}
		}
	}
	return truth
}

// matcherContext assembles the factory input for this experiment.
func (e *Experiment) matcherContext() MatcherContext {
	return MatcherContext{Dataset: e.Dataset, Candidates: e.Candidates, Table: e.Table, Options: e.opts}
}

// matcher returns the named matcher, instantiating and caching it on
// first use.
func (e *Experiment) matcher(name string) (match.Matcher, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if m, ok := e.built[name]; ok {
		return m, nil
	}
	factory, ok := lookupMatcher(name)
	if !ok {
		return nil, fmt.Errorf("cem: unknown matcher %q (registered: %v)", name, Matchers())
	}
	m, err := factory(e.matcherContext())
	if err != nil {
		return nil, fmt.Errorf("cem: building matcher %q: %w", name, err)
	}
	if m == nil {
		return nil, fmt.Errorf("cem: matcher factory %q returned nil", name)
	}
	e.built[name] = m
	return m, nil
}

// Evaluate scores a result against ground truth (no reference run).
func (e *Experiment) Evaluate(res *Result) eval.Report {
	return eval.EvaluateLabels(res.Result, e.gold(), nil)
}

// EvaluateAgainst scores a result against ground truth and a reference
// run (for soundness/completeness, §2.2.1).
func (e *Experiment) EvaluateAgainst(res *Result, reference match.PairSet) eval.Report {
	return eval.EvaluateLabels(res.Result, e.gold(), reference)
}

// EvaluateBCubed computes the B-cubed cluster metric of a result: the
// match set is closed into clusters and scored per entity against the
// ground-truth author of each reference. Complements the paper's
// pairwise precision/recall with the cluster-level view common in entity
// resolution.
func (e *Experiment) EvaluateBCubed(res *Result) eval.PRF {
	return eval.BCubedFromMatches(res.Matches, e.gold())
}

// gold returns the ground-truth author of every reference, negative where
// the reference is unlabeled.
func (e *Experiment) gold() []int32 {
	gold := make([]int32, e.Dataset.NumRefs())
	for i := range e.Dataset.Refs {
		gold[i] = e.Dataset.Refs[i].True
	}
	return gold
}

// TransitiveClosure returns the transitive closure of a match set over
// the dataset's references — the optional post-processing step Appendix A
// notes preserves monotonicity when applied at the end. Runners apply it
// automatically under WithTransitiveClosure. Only entities that
// participate in a match are grouped; singleton components are skipped
// rather than materialized.
func (e *Experiment) TransitiveClosure(matches match.PairSet) match.PairSet {
	n := e.Dataset.NumRefs()
	dsu := unionfind.New(n)
	for p := range matches.All() {
		dsu.Union(int(p.A), int(p.B))
	}
	members := map[int][]match.EntityID{}
	seen := make([]bool, n)
	add := func(id match.EntityID) {
		if seen[id] {
			return
		}
		seen[id] = true
		r := dsu.Find(int(id))
		members[r] = append(members[r], id)
	}
	for p := range matches.All() {
		add(p.A)
		add(p.B)
	}
	out := match.NewPairSet()
	for _, comp := range members {
		for i := 0; i < len(comp); i++ {
			for j := i + 1; j < len(comp); j++ {
				out.Add(match.MakePair(comp[i], comp[j]))
			}
		}
	}
	return out
}
