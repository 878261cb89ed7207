package core

import "context"

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
// PE(M+ ∪ M) ≥ PE(M+), adds it to mPlus, and rescans (a promotion can
// unlock further promotions). The newly promoted pairs are returned.
// Soundness: by supermodularity, PE(M+∪M) ≥ PE(M+) with sound M+ implies
// M ⊆ E(E) (proof of Theorem 4).
func promote(prob Probabilistic, store *MessageStore, mPlus PairSet, stats *RunStats) []Pair {
	// The promotion test PE(M+ ∪ M) ≥ PE(M+) is a score-delta sign test.
	// Prefer the matcher's incremental delta when available; otherwise
	// fall back to two full LogScore evaluations.
	delta := func(missing []Pair) float64 {
		if ds, ok := prob.(DeltaScorer); ok {
			return ds.ScoreSetDelta(missing, mPlus)
		}
		candidate := mPlus.Clone()
		for _, p := range missing {
			candidate.Add(p)
		}
		return prob.LogScore(candidate) - prob.LogScore(mPlus)
	}

	var promotedPairs []Pair
	var missing []Pair // reused across messages; delta() only reads it
	for {
		again := false
		for _, msg := range store.Messages() {
			// Skip messages already subsumed by the match set.
			missing = missing[:0]
			for _, p := range msg {
				if !mPlus.Has(p) {
					missing = append(missing, p)
				}
			}
			if len(missing) == 0 {
				continue
			}
			stats.ScoreChecks++
			if delta(missing) >= 0 {
				for _, p := range missing {
					mPlus.Add(p)
					promotedPairs = append(promotedPairs, p)
				}
				stats.PromotedSets++
				again = true
			}
		}
		if !again {
			break
		}
	}
	return promotedPairs
}
