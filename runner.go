package cem

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/match"
)

// Result is the outcome of a Runner run: the raw scheme result plus the
// run's provenance. The embedded core result exposes Matches and Stats.
type Result struct {
	*core.Result
	// Matcher is the registry name of the matcher that produced this
	// result.
	Matcher string
	// Closed reports whether WithTransitiveClosure post-processed the
	// match set.
	Closed bool

	// preClosure is the raw match set before transitive closure was
	// applied (nil when Closed is false). Warm starts and saved state
	// take the evidence from it: the engine's internal evidence is always
	// the unclosed set, and closure re-composes at the end of every run.
	preClosure match.PairSet
}

// evidence returns the result's raw (pre-closure) match set.
func (r *Result) evidence() match.PairSet {
	if r.preClosure != nil {
		return r.preClosure
	}
	return r.Matches
}

// Runner executes schemes for one experiment with one matcher under a
// fixed set of options. Build with Experiment.Runner; a Runner is
// immutable after construction and safe for concurrent use.
type Runner struct {
	exp         *Experiment
	name        string
	matcher     match.Matcher
	parallelism int
	negative    match.PairSet
	progress    func(match.ProgressEvent)
	closure     bool
	backend     match.Backend
	store       match.Store
}

// RunnerOption customizes a Runner.
type RunnerOption func(*Runner)

// WithParallelism sets the default pool backend's worker count. n > 1
// maps every round's active neighborhoods concurrently against the
// round-start evidence and reduces afterwards; n <= 1 evaluates them in
// order, each one already seeing the matches of those before it. The
// output is the same for well-behaved matchers (Theorems 2 and 4).
func WithParallelism(n int) RunnerOption {
	return func(r *Runner) { r.parallelism = n }
}

// WithProgress installs a callback invoked (sequentially) after every
// neighborhood evaluation. Callbacks must be fast; they sit on the
// scheduling path.
func WithProgress(fn func(match.ProgressEvent)) RunnerOption {
	return func(r *Runner) { r.progress = fn }
}

// WithTransitiveClosure applies the transitive closure to the match set
// at the end of every run — the Appendix A post-processing step the
// paper prescribes for the RULES matcher. The closure runs after the
// rounds, so it can output a pair WithNegativeEvidence forbids.
func WithTransitiveClosure() RunnerOption {
	return func(r *Runner) { r.closure = true }
}

// WithNegativeEvidence seeds the run with V− — pairs known NOT to match,
// passed to every matcher invocation (Definition 1), attached sharded
// workers included. V− binds the matcher calls only: WithTransitiveClosure
// may still join a V− pair.
func WithNegativeEvidence(neg match.PairSet) RunnerOption {
	return func(r *Runner) { r.negative = neg }
}

// WithBackend executes the neighborhood schemes (NO-MP, SMP, MMP) on the
// given execution backend instead of the default shared-memory pool —
// e.g. NewShardedNetBackend(k, addrs...), which partitions the cover
// across k supervised workers exchanging serialized evidence. The output
// is identical for every backend (consistency, Theorems 2 and 4);
// backends trade where the matcher work runs. FULL and UB have no round structure and ignore
// the backend.
func WithBackend(b match.Backend) RunnerOption {
	return func(r *Runner) { r.backend = b }
}

// WithShardCount is shorthand for WithBackend(NewShardedNetBackend(k)):
// run on the sharded backend with k in-process workers (k < 1 means one
// per CPU).
func WithShardCount(k int) RunnerOption {
	return func(r *Runner) { r.backend = NewShardedNetBackend(k) }
}

// WithStateStore saves a neighborhood-scheme run's state into s as the
// store's state blob — the one SaveState writes — before its first round
// and after every completed round: the whole M+, the next active set,
// outstanding maximal messages, visits and stats. A killed run continues
// from it with Pipeline.Reopen, which reopens a completed state and
// continues one that is not. A fresh run's first save replaces whatever
// state s held. FULL and UB have no rounds and ignore the option.
//
// Only a batch run wants it. A long-lived service journals its input
// beside its store and reruns an interrupted batch from the journal; its
// background SaveState owns the state blob.
func WithStateStore(s match.Store) RunnerOption {
	return func(r *Runner) { r.store = s }
}

// Runner builds a scheme executor for the named matcher ("mln", "rules",
// or any name passed to RegisterMatcher). The matcher is instantiated on
// first use and cached per experiment.
func (e *Experiment) Runner(matcher string, opts ...RunnerOption) (*Runner, error) {
	m, err := e.matcher(matcher)
	if err != nil {
		return nil, err
	}
	r := &Runner{exp: e, name: matcher, matcher: m}
	for _, o := range opts {
		o(r)
	}
	return r, nil
}

// Name returns the registry name of the runner's matcher.
func (r *Runner) Name() string { return r.name }

// Matcher returns the grounded matcher instance.
func (r *Runner) Matcher() match.Matcher { return r.matcher }

// coreConfig assembles the framework configuration for this runner.
func (r *Runner) coreConfig() core.Config {
	cfg := core.Config{
		Cover:        r.exp.Cover,
		Matcher:      r.matcher,
		Relation:     r.exp.Dataset.Coauthor(),
		Negative:     r.negative,
		Parallelism:  r.parallelism,
		Progress:     r.progress,
		MatcherLabel: r.name,
	}
	if s := r.store; s != nil {
		cfg.Save = func(b []byte) error { return s.SaveBlob(match.KindSnapshot, stateBlobName, b) }
	}
	return cfg
}

// coreScheme maps a public scheme to the engine's canonical round-based
// scheme name, or "" for whole-set schemes (FULL, UB) that have no round
// structure.
func coreScheme(s Scheme) string {
	switch s {
	case SchemeNoMP:
		return "NO-MP"
	case SchemeSMP:
		return "SMP"
	case SchemeMMP:
		return "MMP"
	}
	return ""
}

// Run executes one scheme. The context cancels or deadlines the run
// between neighborhood evaluations; a canceled run returns ctx.Err().
// The neighborhood schemes run their rounds on the runner's backend (the
// shared-memory pool unless WithBackend says otherwise); FULL and UB are
// single whole-set matcher calls.
func (r *Runner) Run(ctx context.Context, s Scheme) (*Result, error) {
	return r.run(ctx, s, nil)
}

// run is the one execution path: a round scheme goes to the engine's
// round driver on the runner's backend (nil means the pool), cold or from
// a State; FULL and UB are whole-set calls. Every result is sealed.
func (r *Runner) run(ctx context.Context, s Scheme, from *core.State) (*Result, error) {
	cfg := r.coreConfig()
	var (
		raw *core.Result
		err error
	)
	switch cs := coreScheme(s); {
	case cs != "":
		b := r.backend
		if b == nil {
			b = core.PoolBackend{}
		}
		raw, err = core.RunBackendFrom(ctx, cfg, cs, b, from)
	case s == SchemeFull:
		raw, err = core.Full(ctx, cfg)
	case s == SchemeUB:
		raw, err = core.UB(ctx, cfg, r.exp.Truth())
	default:
		return nil, fmt.Errorf("cem: unknown scheme %q", s)
	}
	if err != nil {
		return nil, err
	}
	return r.seal(raw), nil
}

// seal applies the runner's post-processing (transitive closure) to a raw
// engine result and wraps it with provenance.
func (r *Runner) seal(raw *core.Result) *Result {
	res := &Result{Result: raw, Matcher: r.name, Closed: r.closure}
	if r.closure {
		res.preClosure = raw.Matches
		raw.Matches = r.exp.TransitiveClosure(raw.Matches)
	}
	return res
}
