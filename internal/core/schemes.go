package core

import (
	"context"
	"time"

	"repro/internal/graph"
)

// Config describes one framework run: the cover, the black-box matcher,
// and the relation graph used by Neighbor(·) to find affected
// neighborhoods (typically the Coauthor graph; may be nil).
type Config struct {
	Cover    *Cover
	Matcher  Matcher
	Relation *graph.Graph

	// Negative is the initial V− evidence (Definition 1): pairs known NOT
	// to match, passed to every matcher invocation. For well-behaved
	// matchers, growing this set can only shrink the output
	// (Definition 3(iii)). May be nil.
	Negative PairSet

	// Parallelism is the pool backend's worker count (values < 1 mean 1).
	// Every round evaluates the active set and reduces the new evidence
	// centrally. One worker evaluates the set in order and reduces each
	// neighborhood at once, so later neighborhoods of the same round
	// already see its matches (Algorithm 1's immediate propagation);
	// n > 1 workers map the set concurrently against the round-start
	// evidence — the driver's one Evidence, which nothing writes while
	// they read it — and reduce afterwards. Output is the same either
	// way for well-behaved matchers (consistency, Theorems 2 and 4). The
	// Matcher must be safe for concurrent Match/Candidates calls when
	// Parallelism > 1.
	Parallelism int

	// Progress, when non-nil, is invoked sequentially after every
	// neighborhood evaluation (from the reducing goroutine in parallel
	// runs). Callbacks must be fast; they sit on the scheduling path.
	Progress func(ProgressEvent)
}

// workers normalizes Parallelism to an effective worker count.
func (cfg *Config) workers() int {
	if cfg.Parallelism < 1 {
		return 1
	}
	return cfg.Parallelism
}

// emit delivers a progress event if a callback is installed.
func (cfg *Config) emit(scheme string, id int32, round, evaluations, matches int) {
	if cfg.Progress == nil {
		return
	}
	cfg.Progress(ProgressEvent{
		Scheme:       scheme,
		Neighborhood: id,
		Round:        round,
		Evaluations:  evaluations,
		Matches:      matches,
	})
}

// NoMP runs the matcher once on every neighborhood independently and
// unions the results — the NO-MP baseline of §6: a single round with no
// evidence flowing between neighborhoods. Cancellation of ctx aborts
// between neighborhood evaluations.
func NoMP(ctx context.Context, cfg Config) (*Result, error) {
	return RunBackend(ctx, cfg, "NO-MP", PoolBackend{}, CheckpointConfig{})
}

// Full runs the matcher once on the entire entity set — the FULL
// reference of Appendix C (feasible only for cheap matchers). The single
// matcher call is not interruptible; ctx is checked on entry.
func Full(ctx context.Context, cfg Config) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	all := make([]EntityID, cfg.Cover.NumEntities)
	for i := range all {
		all[i] = EntityID(i)
	}
	res := &Result{Scheme: "FULL"}
	res.Stats.ActiveSizes = []int{activeDecisions(cfg.Matcher, all, nil)}
	t0 := time.Now()
	res.Matches = cfg.Matcher.Match(all, nil, cfg.Negative)
	res.Stats.MatcherTime = time.Since(t0)
	res.Stats.Neighborhoods = 1
	res.Stats.MatcherCalls = 1
	res.Stats.Evaluations = 1
	res.Stats.MaxRevisits = 1
	res.Stats.Elapsed = time.Since(start)
	cfg.emit("FULL", -1, 1, 1, res.Matches.Len())
	return res, nil
}

// SMP is the simple message-passing scheme (Algorithm 1). The matches
// found so far are passed as positive evidence to every subsequent
// neighborhood run; neighborhoods affected by new matches are
// re-activated until fixpoint.
//
// For a well-behaved matcher, SMP converges, is sound (output ⊆ E(E))
// and consistent (output independent of evaluation order) — Theorem 2 —
// in time O(k²·f(k)·n) — Theorem 3. Rounds run on the pool backend with
// cfg.Parallelism workers (see Config.Parallelism).
func SMP(ctx context.Context, cfg Config) (*Result, error) {
	return RunBackend(ctx, cfg, "SMP", PoolBackend{}, CheckpointConfig{})
}

// activeDecisions counts the in-scope candidate pairs not yet decided by
// the evidence — the neighborhood's effective inference size.
func activeDecisions(m Matcher, entities []EntityID, evidence PairSet) int {
	active := 0
	for _, p := range m.Candidates(entities) {
		if !evidence.Has(p) {
			active++
		}
	}
	return active
}
