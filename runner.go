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
	ckptDir     string
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

// WithCheckpointDir persists a checkpoint to dir after every completed
// round of a neighborhood-scheme run: the round's evidence delta plus
// the state needed to restart at the next round boundary, in the
// internal/wire format. A killed run is continued with Runner.Resume;
// a fresh Run clears any previous trail in dir first. FULL and UB have
// no rounds and ignore the option.
//
// The trail is the MID-RUN durability mechanism: it replays rounds to
// recover a killed run. It survives the death of the process, not a
// power cut (it is not fsynced; a record torn that way is set aside on
// resume and the run continues from the round before it). It is not the
// only persistence the engine has — completed state lives in a Store
// (see SaveState): its snapshot blob reopens on restart with no replay at
// all (Pipeline.Reopen). A batch run wants the trail for mid-run kills; a
// long-lived service journals its input beside its store and reruns an
// interrupted batch from the journal instead.
func WithCheckpointDir(dir string) RunnerOption {
	return func(r *Runner) { r.ckptDir = dir }
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
	return core.Config{
		Cover:       r.exp.Cover,
		Matcher:     r.matcher,
		Relation:    r.exp.Dataset.Coauthor(),
		Negative:    r.negative,
		Parallelism: r.parallelism,
		Progress:    r.progress,
	}
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
	return r.run(ctx, s, nil, false)
}

// Resume continues a previous checkpointed run of scheme s from the
// configured WithCheckpointDir directory: the persisted rounds are
// replayed from their serialized evidence deltas and execution picks up
// at the first unfinished round, landing on the same output the
// uninterrupted run would have produced (consistency). An empty
// directory resumes into a fresh run; a completed trail rebuilds the
// result without calling the matcher. The trail must come from the same
// scheme over the same experiment.
func (r *Runner) Resume(ctx context.Context, s Scheme) (*Result, error) {
	if r.ckptDir == "" {
		return nil, fmt.Errorf("cem: Resume requires WithCheckpointDir")
	}
	if coreScheme(s) == "" {
		return nil, fmt.Errorf("cem: scheme %q does not checkpoint (no round structure)", s)
	}
	return r.run(ctx, s, nil, true)
}

// run is the one execution path: a round scheme goes to the engine's
// round driver on the runner's backend (nil means the pool), cold or from
// a warm seed; FULL and UB are whole-set calls. Every result is sealed.
func (r *Runner) run(ctx context.Context, s Scheme, warm *core.WarmStart, resume bool) (*Result, error) {
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
		raw, err = core.RunBackendFrom(ctx, cfg, cs, b,
			core.CheckpointConfig{Dir: r.ckptDir, Resume: resume, Matcher: r.name}, warm)
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
