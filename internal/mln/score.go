package mln

import "repro/internal/core"

// LogScore implements core.Probabilistic: the unnormalized log
// probability of a global match set, log PE(S) + const = score(S) =
// Σ_{p∈S} (unary(p) + ε) + Σ_{p,q∈S} coauthor groundings. Sets containing
// non-candidate pairs have probability ≈ 0.
//
// The set is translated once into the workspace's dense state vector, so
// the quadratic interaction term costs one slice index per adjacency
// entry instead of a hashed set lookup. logScoreNaive retains the direct
// PairSet evaluation as the reference the fuzz tests compare against.
func (m *Matcher) LogScore(s core.PairSet) float64 {
	ws := m.getWS()
	defer m.putWS(ws)
	st := ws.state
	for k := range s {
		id, ok := m.table.Find(k.Pair())
		if !ok {
			return nonCandidateLogScore
		}
		st[id] = stFilled | stPos
		ws.touched = append(ws.touched, id)
	}
	total := 0.0
	for _, id := range ws.touched {
		total += m.unary[id] + m.w.TieEps
		for _, e := range m.sup.Of(id) {
			if st[e.ID]&stPos != 0 {
				// Each unordered (p, q) interaction is stored on both
				// adjacency lists; halve to count it once.
				total += m.w.Coauthor * float64(2*e.N) / 2
			}
		}
	}
	return total
}

// logScoreNaive is the pre-dense-view reference implementation of
// LogScore, kept verbatim for differential testing.
func (m *Matcher) logScoreNaive(s core.PairSet) float64 {
	total := 0.0
	for p := range s.All() {
		id, ok := m.table.Find(p)
		if !ok {
			return nonCandidateLogScore
		}
		total += m.unary[id] + m.w.TieEps
		for _, e := range m.sup.Of(id) {
			if s.Has(m.table.Pair(e.ID)) {
				total += m.w.Coauthor * float64(2*e.N) / 2
			}
		}
	}
	return total
}

// nonCandidateLogScore is returned for sets containing pairs outside the
// model's variable universe.
const nonCandidateLogScore = -1e12

// ScoreDelta returns LogScore(s ∪ {p}) − LogScore(s) in O(deg p); it is
// the cheap conditional-probability computation Algorithm 3's Step 7
// depends on.
func (m *Matcher) ScoreDelta(p core.Pair, s core.PairSet) float64 {
	id, ok := m.table.Find(p)
	if !ok {
		return nonCandidateLogScore
	}
	if s.Has(p) {
		return 0
	}
	delta := m.unary[id] + m.w.TieEps
	for _, e := range m.sup.Of(id) {
		if s.HasKey(m.table.Pair(e.ID).Key()) {
			delta += m.w.Coauthor * float64(2*e.N)
		}
	}
	return delta
}

// ScoreSetDelta implements core.DeltaScorer:
// LogScore(s ∪ add) − LogScore(s), counting interactions internal to add
// exactly once. It is ScoreSetDeltaIDs with s translated to dense form
// first.
func (m *Matcher) ScoreSetDelta(add []core.Pair, s core.PairSet) float64 {
	ids := make([]int32, 0, len(add))
	for _, p := range add {
		if s.Has(p) {
			// Already in s (candidate or not): s ∪ add is unchanged by p.
			continue
		}
		id, ok := m.table.Find(p)
		if !ok {
			return nonCandidateLogScore
		}
		ids = append(ids, id)
	}
	return m.ScoreSetDeltaIDs(ids, core.EvidenceOf(m.table, s))
}

// ScoreSetDeltaIDs implements core.DenseProbabilistic: the score delta in
// O(|add|·deg) for candidate ids s does not hold. The added-so-far
// bookkeeping lives in the workspace's dense vector (one bit per
// candidate pair) instead of a per-call map.
func (m *Matcher) ScoreSetDeltaIDs(add []int32, s *core.Evidence) float64 {
	ws := m.getWS()
	defer m.putWS(ws)
	st := ws.state
	total := 0.0
	for _, id := range add {
		if st[id]&stPos != 0 {
			continue
		}
		total += m.unary[id] + m.w.TieEps
		for _, e := range m.sup.Of(id) {
			if st[e.ID]&stPos != 0 || s.HasID(e.ID) {
				total += m.w.Coauthor * float64(2*e.N)
			}
		}
		st[id] = stFilled | stPos
		ws.touched = append(ws.touched, id)
	}
	return total
}

// DecideGiven implements core.ConditionalDecider for the UB oracle: p is
// matched when its conditional score gain, with every other pair clamped
// to its membership in given, is non-negative.
func (m *Matcher) DecideGiven(p core.Pair, given core.PairSet) bool {
	id, ok := m.table.Find(p)
	if !ok {
		return false
	}
	delta := m.unary[id] + m.w.TieEps
	for _, e := range m.sup.Of(id) {
		if given.HasKey(m.table.Pair(e.ID).Key()) {
			delta += m.w.Coauthor * float64(2*e.N)
		}
	}
	return delta >= 0
}
