package core

import (
	"context"
	"math"
)

// MMP is the maximal message-passing scheme (Algorithm 3). It requires a
// Type-II (Probabilistic) matcher: besides exchanging found matches like
// SMP, every neighborhood evaluation derives *maximal messages* —
// all-or-nothing sets of correlated pairs (Definition 8, computed by
// Algorithm 2) — which are merged across neighborhoods and promoted to
// real matches as soon as the global model's probability does not
// decrease (Step 7: PE(M+ ∪ M) ≥ PE(M+)).
//
// For a supermodular Type-II matcher, MMP converges and is sound and
// consistent (Theorem 4) in time O(k⁴·f(k)·n) (Theorem 5). Rounds run on
// the pool backend with cfg.Parallelism workers (see Config.Parallelism);
// the driver collects each round's maximal messages — dropping
// singletons, see Reduce — and runs the Step 7 promotion once per round.
// Cancellation of ctx aborts between neighborhood evaluations.
func MMP(ctx context.Context, cfg Config) (*Result, error) {
	return RunBackend(ctx, cfg, "MMP", PoolBackend{}, CheckpointConfig{})
}

// promote repeatedly scans the message store for a message M with
// PE(M+ ∪ M) ≥ PE(M+), adds it to M+, and rescans (a promotion can
// unlock further promotions). The promoted pairs join the round's new
// pairs through M+'s log. Soundness: by supermodularity, PE(M+∪M) ≥ PE(M+)
// with sound M+ implies M ⊆ E(E) (proof of Theorem 4).
func (d *RoundDriver) promote() {
	st, ev, stats := d.store, d.ev, &d.res.Stats
	var missing []int // store indices; reused across messages
	var ids []int32   // their candidate ids, while all are candidates
	var pairs []Pair  // their pairs, for a matcher scored in pair form
	for again := true; again; {
		again = false
		for _, msg := range st.components() {
			// Skip messages already subsumed by the match set.
			missing, ids = missing[:0], ids[:0]
			for _, i := range msg {
				if c := st.cand[i]; c >= 0 {
					if ev.HasID(c) {
						continue
					}
					ids = append(ids, c)
				} else if ev.over.Has(st.pairs[i]) {
					continue
				}
				missing = append(missing, i)
			}
			if len(missing) == 0 {
				continue
			}
			stats.ScoreChecks++
			// The promotion test PE(M+ ∪ M) ≥ PE(M+) is a score-delta sign
			// test. A dense matcher scores the ids against the bitset; a
			// pair its table does not hold is no variable of its model, and
			// a message carrying one (only a warm start can) never promotes.
			var delta float64
			if dp := d.plan.denseProb; dp != nil {
				delta = math.Inf(-1)
				if len(ids) == len(missing) {
					delta = dp.ScoreSetDeltaIDs(ids, ev)
				}
			} else {
				pairs = pairs[:0]
				for _, i := range missing {
					pairs = append(pairs, st.pairs[i])
				}
				delta = scoreSetDelta(d.plan.Prob, pairs, ev.over)
			}
			if delta >= 0 {
				for _, i := range missing {
					if c := st.cand[i]; c >= 0 {
						ev.AddID(c)
					} else {
						ev.AddKey(st.pairs[i].Key())
					}
				}
				stats.PromotedSets++
				again = true
			}
		}
	}
}

// scoreSetDelta is LogScore(mPlus ∪ add) − LogScore(mPlus) for a matcher
// scored in pair form: its own incremental delta when it has one,
// otherwise two full LogScore evaluations.
func scoreSetDelta(prob Probabilistic, add []Pair, mPlus PairSet) float64 {
	if ds, ok := prob.(DeltaScorer); ok {
		return ds.ScoreSetDelta(add, mPlus)
	}
	candidate := mPlus.Clone()
	for _, p := range add {
		candidate.Add(p)
	}
	return prob.LogScore(candidate) - prob.LogScore(mPlus)
}
