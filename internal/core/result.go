package core

import (
	"fmt"
	"time"
)

// Result is the outcome of running a message-passing scheme.
type Result struct {
	Scheme  string
	Matches PairSet
	Stats   RunStats

	// Messages holds the run's outstanding maximal messages at
	// termination (MMP only; nil otherwise): the all-or-nothing sets
	// that never promoted. Together with Matches they are the warm-start
	// seed an incremental continuation needs — a later delta's evidence
	// may yet promote them.
	Messages [][]Pair
}

// RunStats instruments a run; the Theorem 3/5 complexity bounds are
// checked against these counters in tests, and the experiment harness
// reports them.
type RunStats struct {
	Neighborhoods   int // number of neighborhoods in the cover
	MatcherCalls    int // calls to Matcher.Match
	Evaluations     int // neighborhood evaluations by the scheduler
	MaxRevisits     int // max times any single neighborhood was evaluated
	MessagesSent    int // evidence deltas that re-activated neighborhoods
	MaximalMessages int // maximal messages generated (MMP only)
	PromotedSets    int // maximal messages promoted to matches (MMP only)
	ScoreChecks     int // LogScore comparisons (MMP only)

	// Skips counts re-activations that were discharged without calling the
	// matcher because the neighborhood's scope contained no undecided pair
	// (every in-scope candidate already in M+). Skipping applies only to
	// matchers that implement ScopePreparer, whose contract includes the
	// candidate-closure property Match ⊆ Candidates ∪ echoed evidence —
	// under it such a re-evaluation cannot produce new matches, so the
	// skip is output-identical and pure savings. First visits are never
	// skipped, so Evaluations still counts every neighborhood at least
	// once; skipped re-activations emit no progress event and append no
	// ActiveSizes entry.
	Skips       int
	Elapsed     time.Duration // wall-clock time of the run
	MatcherTime time.Duration // time spent inside Matcher.Match

	// Cache is the run's verdict-memo report for matchers implementing
	// CacheReporter (zero otherwise): how many Match/MaximalMessages
	// consultations were served from the matcher's cross-neighborhood
	// memo, recomputed fresh, or recomputed because the neighborhood's
	// relevant evidence changed. Memoization never changes the run's
	// output or the counters above (hits return the verdict recomputation
	// would produce, and cached probe counts are re-reported) — Cache is
	// pure savings accounting. The report is a start/end counter delta on
	// the matcher, so runs sharing one matcher concurrently may attribute
	// each other's traffic; checkpointed trails do not persist it (a
	// resumed run reports only its own process's cache activity).
	Cache CacheReport

	// Resilience counters, maintained by distributed backends
	// (internal/net). Like Cache they are per-process savings/cost
	// accounting, never part of the matching output, and checkpoint
	// trails do not persist them — a resumed run reports only its own
	// process's transport events. All three are monotone within a run.

	// Reassignments counts partitions re-executed on a different worker
	// after their assigned worker died or breached the round deadline.
	Reassignments int
	// RetriedSends counts transport sends retried after a transient
	// error (the successful first attempts are not counted).
	RetriedSends int
	// LateBatchesDropped counts ShardBatches discarded because their
	// epoch was stale — a zombie worker answering an assignment that had
	// already been reassigned and accounted.
	LateBatchesDropped int

	// ActiveSizes records, for every neighborhood evaluation, the number
	// of *active* matching decisions: in-scope candidate pairs not yet in
	// the evidence set. This is the quantity §6.2 credits for SMP/MMP
	// running *faster* than NO-MP ("messages often reduce the active size
	// of the neighborhoods"), and the input to the experiment harness's
	// inference-cost model.
	ActiveSizes []int
}

// TotalActive sums the active decisions across all evaluations.
func (s *RunStats) TotalActive() int {
	total := 0
	for _, a := range s.ActiveSizes {
		total += a
	}
	return total
}

func (s RunStats) String() string {
	base := fmt.Sprintf("n=%d evals=%d calls=%d skips=%d maxRevisit=%d msgs=%d maximal=%d promoted=%d elapsed=%v",
		s.Neighborhoods, s.Evaluations, s.MatcherCalls, s.Skips, s.MaxRevisits,
		s.MessagesSent, s.MaximalMessages, s.PromotedSets, s.Elapsed)
	if s.Cache.Lookups() > 0 {
		base += " " + s.Cache.String()
	}
	if s.Reassignments > 0 || s.RetriedSends > 0 || s.LateBatchesDropped > 0 {
		base += fmt.Sprintf(" reassigned=%d retriedSends=%d lateDropped=%d",
			s.Reassignments, s.RetriedSends, s.LateBatchesDropped)
	}
	return base
}

// CacheReport accounts a matcher's cross-neighborhood verdict memo over
// one run: Hits were served from cache, Misses computed fresh with no
// (matching) entry, Invalidations computed fresh because the cached
// entry's relevant evidence had changed. All zero for matchers without a
// memo (see CacheReporter).
type CacheReport struct {
	Hits          int64
	Misses        int64
	Invalidations int64
}

// Lookups returns the total number of memo consultations.
func (c CacheReport) Lookups() int64 { return c.Hits + c.Misses + c.Invalidations }

// HitRate returns Hits / Lookups (0 when no lookups happened).
func (c CacheReport) HitRate() float64 {
	if n := c.Lookups(); n > 0 {
		return float64(c.Hits) / float64(n)
	}
	return 0
}

// Sub returns the counter delta c − o (the per-run report between two
// cumulative snapshots of one matcher).
func (c CacheReport) Sub(o CacheReport) CacheReport {
	return CacheReport{
		Hits:          c.Hits - o.Hits,
		Misses:        c.Misses - o.Misses,
		Invalidations: c.Invalidations - o.Invalidations,
	}
}

func (c CacheReport) String() string {
	return fmt.Sprintf("cacheHits=%d cacheMisses=%d cacheInvals=%d hitRate=%.2f",
		c.Hits, c.Misses, c.Invalidations, c.HitRate())
}

// ProgressEvent reports one neighborhood evaluation to a Config.Progress
// callback. Events are delivered sequentially, in reduce order (which is
// evaluation order on a one-worker pool).
type ProgressEvent struct {
	Scheme       string
	Neighborhood int32 // id of the evaluated neighborhood; -1 for whole-set runs
	Round        int   // 1-based round number, on every backend; 1 for whole-set runs
	Evaluations  int   // neighborhood evaluations completed so far
	Matches      int   // matches accumulated so far
}
