package rules

import (
	"slices"

	"repro/internal/core"
)

// scope is the skeleton of one neighborhood: the candidate ids with both
// endpoints inside, ascending, and their Pair forms — the Candidates
// answer, which is in (A, B) order because the ids are.
type scope struct {
	ids   []int32
	pairs []core.Pair
}

// PrepareCover implements core.ScopePreparer: ground the support relation
// and precompute every neighborhood's skeleton. Idempotent per cover; a
// different cover replaces the previous preparation atomically, so
// concurrent Match calls are safe either way (an entity slice they do not
// find gets an ephemeral skeleton).
func (m *Matcher) PrepareCover(c *core.Cover) {
	m.ground()
	if m.scopes.Load().Covers(c) {
		return
	}
	ws := m.wsPool.Get().(*workspace)
	defer m.wsPool.Put(ws)
	// Built in the workspace's reused skeleton, then copied out at exact
	// size: appending into a fresh scope pays a regrowth series per list.
	m.scopes.Store(core.BuildCoverScopes(c, func(set []core.EntityID) *scope {
		m.buildScope(set, ws, &ws.eph)
		return &scope{ids: slices.Clone(ws.eph.ids), pairs: slices.Clone(ws.eph.pairs)}
	}))
}

// buildScope fills sc for an entity slice, using the workspace's
// membership marks (left clean on return).
func (m *Matcher) buildScope(entities []core.EntityID, ws *workspace, sc *scope) {
	for _, e := range entities {
		ws.inSet[e] = true
	}
	ids := sc.ids[:0]
	for _, e := range entities {
		for id := m.first[e]; id < m.first[e+1]; id++ {
			if ws.inSet[m.pairs[id].B] {
				ids = append(ids, id)
			}
		}
	}
	for _, e := range entities {
		ws.inSet[e] = false
	}
	slices.Sort(ids)
	sc.ids = ids
	sc.pairs = sc.pairs[:0]
	for _, id := range sc.ids {
		sc.pairs = append(sc.pairs, m.pairs[id])
	}
}

// scopeOf resolves the skeleton for an entity slice: the prepared one for
// a cover neighborhood, or an ephemeral one built into the workspace for
// any other slice (FULL's whole entity set, tests).
func (m *Matcher) scopeOf(entities []core.EntityID, ws *workspace) *scope {
	if sc := m.scopes.Load().Lookup(entities); sc != nil {
		return sc
	}
	m.buildScope(entities, ws, &ws.eph)
	return &ws.eph
}

// CandidateTable implements core.DenseMatcher: the id → pair table, in
// (A, B) order by construction.
func (m *Matcher) CandidateTable() []core.Pair { return m.pairs }

// ScopeIDs implements core.DenseMatcher: the ids of Candidates(entities),
// the cached list (read-only) for a neighborhood of the prepared cover.
func (m *Matcher) ScopeIDs(entities []core.EntityID) []int32 {
	if sc := m.scopes.Load().Lookup(entities); sc != nil {
		return sc.ids
	}
	ws := m.wsPool.Get().(*workspace)
	defer m.wsPool.Put(ws)
	m.buildScope(entities, ws, &ws.eph)
	return slices.Clone(ws.eph.ids)
}

// Candidates implements core.Matcher. For neighborhoods of a prepared
// cover the answer is the skeleton's cached slice — callers must treat it
// as read-only.
func (m *Matcher) Candidates(entities []core.EntityID) []core.Pair {
	if sc := m.scopes.Load().Lookup(entities); sc != nil {
		return sc.pairs
	}
	ws := m.wsPool.Get().(*workspace)
	defer m.wsPool.Put(ws)
	m.buildScope(entities, ws, &ws.eph)
	return slices.Clone(ws.eph.pairs)
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
// state is sized to the candidate universe, inSet to the entity universe.
type workspace struct {
	state   []uint8 // dense view of evidence ∪ seeds ∪ derived, by candidate id
	touched []int32 // state indices to zero on release
	open    []int32 // scoped candidates still underived
	inSet   []bool  // entity membership marks (buildScope only)
	eph     scope   // skeleton of a slice outside the prepared cover
}

func newWorkspace(numPairs, numEntities int) *workspace {
	return &workspace{state: make([]uint8, numPairs), inSet: make([]bool, numEntities)}
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
	m.ground()
	ws := m.wsPool.Get().(*workspace)
	sc := m.scopeOf(entities, ws)
	open := ws.open[:0]
	matched := 0
	for _, id := range sc.ids {
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
	for _, id := range sc.ids {
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
	for _, s := range m.sup[m.supOff[id]:m.supOff[id+1]] {
		if ws.read(m, s, pos, nil)&stPos != 0 {
			if k--; k == 0 {
				return true
			}
		}
	}
	return false
}
