package rules

import "repro/internal/core"

// PrepareCover implements core.ScopePreparer: finish the grounding and
// have the table scope the cover — a no-op when another matcher over the
// same table already prepared it. Safe to call concurrently with Match.
func (m *Matcher) PrepareCover(c *core.Cover) {
	m.lower()
	m.table.PrepareCover(c)
}

// CandidateTable implements core.DenseMatcher.
func (m *Matcher) CandidateTable() *core.CandidateTable { return m.table }

// ScopeIDs implements core.DenseMatcher: the table's.
func (m *Matcher) ScopeIDs(entities []core.EntityID) []int32 { return m.table.ScopeIDs(entities) }

// Candidates implements core.Matcher: the table's candidates over the
// entity set, in (A, B) order, materialized on each call.
func (m *Matcher) Candidates(entities []core.EntityID) []core.Pair {
	return m.table.Candidates(entities)
}

// Evidence states in the workspace's dense vector. A zero byte means "not
// read yet"; a read entry carries stFilled plus the membership bits, and
// the bits of a Seed are the same two, so a candidate's ground evidence
// and the caller's merge with an OR. stPos is also set when the running
// call derives the pair.
const (
	stPos    uint8 = 1
	stNeg    uint8 = 2
	stFilled uint8 = 1 << 7
)

// workspace is the per-call scratch of one Match, pooled on the matcher:
// state is sized to the candidate universe.
type workspace struct {
	state   []uint8 // dense view of evidence ∪ seeds ∪ derived, by candidate id
	touched []int32 // state indices to zero on release
	open    []int32 // scoped candidates still underived
	eph     []int32 // scoped ids of a slice outside the prepared cover
}

// read returns candidate id's state, reading its seed and evidence bits
// into the dense vector on first sight in this call.
func (ws *workspace) read(m *Matcher, id int32, pos, neg *core.Evidence) uint8 {
	v := ws.state[id]
	if v != 0 {
		return v
	}
	v = stFilled | uint8(m.seed[id])
	if pos.HasID(id) {
		v |= stPos
	}
	if neg.HasID(id) {
		v |= stNeg
	}
	ws.state[id] = v
	ws.touched = append(ws.touched, id)
	return v
}

// Match implements core.Matcher; the evaluator itself is MatchIDs.
func (m *Matcher) Match(entities []core.EntityID, pos, neg core.PairSet) core.PairSet {
	return core.MatchByIDs(m, entities, pos, neg)
}

// MatchIDs implements core.DenseMatcher and is the evaluator Match wraps:
// the least fixpoint of the rules over the in-scope candidates. A
// candidate is equals when the positive evidence or its seed says so, or
// once a rule derived it; equals pairs support rules wherever they lie, in
// or out of scope. Negative evidence and distinct seeds keep a pair out of
// derivation and output, whatever else holds of it. The output is the
// ascending ids of the in-scope equals candidates not so suppressed.
// Nothing is copied: evidence is read through, one bit test per touched
// candidate, and the returned list is the only allocation.
func (m *Matcher) MatchIDs(entities []core.EntityID, pos, neg *core.Evidence) []int32 {
	m.lower()
	ws := m.wsPool.Get().(*workspace)
	// The prepared list for a cover neighborhood; any other slice (FULL's
	// whole entity set, tests) is scoped into the workspace.
	var ids []int32
	if s := m.table.Scope(entities); s != nil {
		ids = s.IDs
	} else {
		ws.eph = m.table.AppendScopeIDs(ws.eph[:0], entities)
		ids = ws.eph
	}
	open := ws.open[:0]
	matched := 0
	for _, id := range ids {
		switch v := ws.read(m, id, pos, neg); {
		case v&stNeg != 0:
		case v&stPos != 0:
			matched++
		case m.want[id] != never:
			open = append(open, id)
		}
	}
	// Gauss–Seidel passes: a pair derived early in a pass already supports
	// the ones after it. The fixpoint is the least one whatever the order
	// (the rules are monotone), and open shrinks in place.
	for derived := true; derived; {
		derived = false
		rest := open[:0]
		for _, id := range open {
			if !m.fires(id, pos, ws) {
				rest = append(rest, id)
				continue
			}
			ws.state[id] |= stPos
			matched++
			derived = true
		}
		open = rest
	}
	// Derivation order is not id order; the state vector is, so the output
	// is one more sweep of the scope.
	out := make([]int32, 0, matched)
	for _, id := range ids {
		if v := ws.state[id]; v&stNeg == 0 && v&stPos != 0 {
			out = append(out, id)
		}
	}
	ws.open = open[:0]
	for _, id := range ws.touched {
		ws.state[id] = 0
	}
	ws.touched = ws.touched[:0]
	m.wsPool.Put(ws)
	return out
}

// fires reports whether candidate id has the support its rule wants:
// "count the supports that are equals, stop at k". A support outside the
// scope is read with no negative evidence — only its equals bit matters.
func (m *Matcher) fires(id int32, pos *core.Evidence, ws *workspace) bool {
	k := m.want[id]
	if k == 0 {
		return true
	}
	for _, s := range m.sup.Of(id) {
		if ws.read(m, s.ID, pos, nil)&stPos != 0 {
			if k--; k == 0 {
				return true
			}
		}
	}
	return false
}
