package core

import (
	"context"
	"fmt"
)

// RoundPlan is the immutable description of one round-based scheme run:
// which scheme, over which cover, with which matcher. Backends read it;
// only the RoundDriver mutates run state. The paper's map/reduce view of
// SMP and MMP (§6.3) is exactly this split: a plan that any worker
// topology can execute, plus a central reduce.
type RoundPlan struct {
	// Config is the framework configuration (cover, matcher, relation,
	// negative evidence, parallelism, progress callback).
	Config Config
	// Scheme is the canonical scheme name ("NO-MP", "SMP", "MMP").
	Scheme string
	// Exchange reports whether rounds exchange evidence and re-activate
	// affected neighborhoods (SMP/MMP). NO-MP runs exactly one round with
	// a nil evidence snapshot.
	Exchange bool
	// WithMessages reports whether evaluations additionally compute
	// maximal messages (MMP).
	WithMessages bool
	// Prob is the Type-II view of the matcher; non-nil iff WithMessages.
	Prob Probabilistic
	// CanSkip reports whether the matcher opted into the
	// candidate-closure contract (ScopePreparer), allowing undecided-free
	// re-activations to be discharged without a matcher call.
	CanSkip bool

	// The matcher's dense extension, when it has the one the scheme needs
	// (DenseProbabilistic for plans WithMessages): evaluations then go
	// through the id-form methods and every Evidence of the run is a
	// bitset over its table — read as handed over: a CandidateTable was
	// validated where it was built. Nil for any other matcher, whose
	// evidence lives in the overflow set and whose Match is called as
	// declared.
	dense     DenseMatcher
	denseProb DenseProbabilistic // dense, for plans WithMessages
	table     *CandidateTable    // dense's candidate table; nil without one
	negative  *Evidence          // Config.Negative over the table
}

// NewRoundPlan validates the scheme, announces the cover to a
// scope-preparing matcher, and builds the plan. It is exported for
// out-of-process executors (cmd/emworker) that must reconstruct the
// identical plan from the same configuration; in-process callers go
// through RunBackend, which builds the plan itself.
func NewRoundPlan(cfg Config, scheme string) (*RoundPlan, error) {
	plan := &RoundPlan{Config: cfg, Scheme: scheme}
	switch scheme {
	case "NO-MP":
	case "SMP":
		plan.Exchange = true
	case "MMP":
		prob, ok := cfg.Matcher.(Probabilistic)
		if !ok {
			return nil, fmt.Errorf("core: MMP requires a Probabilistic (Type-II) matcher, got %T", cfg.Matcher)
		}
		plan.Exchange, plan.WithMessages, plan.Prob = true, true, prob
	default:
		return nil, fmt.Errorf("core: scheme %q has no round-based executor", scheme)
	}
	plan.CanSkip = prepareScopes(&plan.Config)
	if plan.WithMessages {
		if dp, ok := cfg.Matcher.(DenseProbabilistic); ok {
			plan.dense, plan.denseProb = dp, dp
		}
	} else {
		plan.dense, _ = cfg.Matcher.(DenseMatcher)
	}
	if plan.dense != nil {
		if plan.table = plan.dense.CandidateTable(); plan.table == nil {
			return nil, fmt.Errorf("core: dense matcher %T has no candidate table", cfg.Matcher)
		}
		plan.negative = EvidenceOf(plan.table, cfg.Negative)
	}
	return plan, nil
}

// NewEvidence returns an empty evidence set in the plan's form — over the
// dense matcher's candidate table, or all-overflow without one. It is
// what a backend that keeps replicas of M+ (sharded workers) starts each
// replica from.
func (p *RoundPlan) NewEvidence() *Evidence { return NewEvidence(p.table) }

// Backend executes the rounds of a message-passing scheme. A backend
// owns the Map side — where and how the active neighborhoods are
// evaluated each round — while the RoundDriver owns the Reduce side:
// merging evidence, promoting messages, deriving the next active set,
// and checkpointing. Theorems 2 and 4 (consistency) are what make the
// backend choice invisible in the output: any topology that evaluates
// each round's active set against at least the round-start evidence —
// the frozen snapshot, or M+ as it grows within the round — produces the
// identical match set for well-behaved matchers.
//
// The contract per round: evaluate every id in driver.Active() —
// driver.Evaluate, or plan.Evaluate against a replica equal to
// driver.Snapshot() at round start — and reduce the jobs in
// active-set order, with driver.FinishRound or Reduce…EndRound. Repeat
// until driver.Done(). Evidence changes hands as *Evidence in process
// (Snapshot, plan.NewEvidence, AddKey for a received delta) and as
// ascending packed keys on the wire (Snapshot().SortedKeys, RoundDelta,
// plan.JobToWire / JobFromWire): a backend never sees, and never needs,
// which form the matcher took. The built-in backends are PoolBackend and
// the sharded coordinator of internal/net (workers with private replicas,
// in-process or cmd/emworker processes); a cem.Runner runs on the one
// cem.WithBackend hands it, the pool when none.
type Backend interface {
	RunRounds(ctx context.Context, plan *RoundPlan, driver *RoundDriver) error
}

// PoolBackend is the default execution backend: an in-process pool of
// plan.Config.Parallelism workers over shared memory. With several
// workers a round is mapped concurrently against the frozen round-start
// snapshot and reduced afterwards. A single worker has no concurrency to
// protect, so it reduces each job before evaluating the next: the rest
// of the round already sees the new matches — the immediate evidence
// propagation of Algorithm 1 as written, which is why a serial SMP
// sweep decides fewer pairs than NO-MP's (§6.2, Fig 3(d)).
type PoolBackend struct{}

// RunRounds implements Backend.
func (PoolBackend) RunRounds(ctx context.Context, plan *RoundPlan, d *RoundDriver) error {
	workers := plan.Config.workers()
	for !d.Done() {
		if workers > 1 {
			jobs, err := d.mapRound(ctx, workers)
			if err != nil {
				return err
			}
			if err := d.FinishRound(jobs); err != nil {
				return err
			}
			continue
		}
		for _, id := range d.Active() {
			if err := ctx.Err(); err != nil {
				return err
			}
			d.Reduce(d.evaluate(id, &d.arena))
		}
		if err := d.EndRound(); err != nil {
			return err
		}
	}
	return nil
}
