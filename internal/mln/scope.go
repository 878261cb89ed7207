package mln

import (
	"slices"

	"repro/internal/core"
	"repro/internal/unionfind"
)

// This file implements the matcher's side of core.ScopePreparer: the
// cover and the ground model are immutable for a whole run — only
// evidence grows — so everything that depends on (model, neighborhood)
// alone is computed once per cover and reused by every MatchIDs /
// MatchMessagesIDs call that names a neighborhood of it. Per-call state (the evidence
// translation and solver inputs) lives in pooled workspaces holding a
// dense state vector indexed by candidate-pair id, so all scoring and
// conditioning inside a call is O(1) slice indexing instead of hashed
// set lookups.

// scopeEdge is one in-scope interaction of a neighborhood skeleton:
// scoped pairs at positions pi < pj interact with `count` coauthor
// groundings. Weights are derived at use time (w.Coauthor may change via
// SetWeights), so skeletons never go stale.
type scopeEdge struct {
	pi, pj int32
	count  int32
}

// boundaryEdge is an interaction from scoped position pi to the
// out-of-scope candidate pair `other` (a global pair id): when `other`
// is matched in the evidence, the free variable at pi receives the full
// grounding weight as a unary bonus.
type boundaryEdge struct {
	pi    int32
	other int32
	count int32
}

// scope is the skeleton of one neighborhood: its scoped candidate ids
// (ascending; the table's own list for a prepared neighborhood), the
// local interaction list and the out-of-scope boundary. memo holds a
// prepared scope's cached verdicts (see memo.go).
type scope struct {
	ids      []int32
	edges    []scopeEdge
	boundary []boundaryEdge
	memo     scopeMemo
}

// prepared is one cover's preparation: the table's scoping of it and, by
// neighborhood number, this matcher's skeletons over those scopes.
type prepared struct {
	scopes *core.Scopes
	skel   []scope
}

// PrepareCover implements core.ScopePreparer: have the table scope the
// cover — done once however many matchers share the table — and link
// every neighborhood's interaction skeleton over its ids. Idempotent per
// cover; a different cover replaces the previous preparation atomically,
// so concurrent calls are safe either way (one naming a neighborhood of
// another cover takes the ephemeral path).
func (m *Matcher) PrepareCover(c *core.Cover) {
	if p := m.prep.Load(); p != nil && p.scopes.Cover() == c {
		return
	}
	s := m.table.PrepareCover(c)
	ws := m.getWS()
	defer m.putWS(ws)
	// Linked in the workspace's reused skeleton, then copied out at exact
	// size: appending into a fresh scope pays a regrowth series per list.
	p := &prepared{scopes: s, skel: make([]scope, c.Len())}
	for nb := range p.skel {
		ids := s.IDs(int32(nb))
		m.linkScope(ids, ws, &ws.eph)
		sk := &p.skel[nb]
		sk.ids, sk.edges, sk.boundary = ids, slices.Clone(ws.eph.edges), slices.Clone(ws.eph.boundary)
	}
	m.prep.Store(p)
}

// linkScope assembles the interactions of the scoped ids into sc's edge
// and boundary lists, using the workspace's position marks (left clean on
// return). Edge order follows id order and, within an id, its support
// list — which ties must not disturb.
func (m *Matcher) linkScope(ids []int32, ws *workspace, sc *scope) {
	for pi, id := range ids {
		ws.posOf[id] = int32(pi)
	}
	sc.edges, sc.boundary = sc.edges[:0], sc.boundary[:0]
	for pi, id := range ids {
		for _, e := range m.sup.Of(id) {
			if pj := ws.posOf[e.ID]; pj >= 0 {
				if e.ID > id { // each undirected interaction once
					sc.edges = append(sc.edges, scopeEdge{pi: int32(pi), pj: pj, count: 2 * e.N})
				}
			} else {
				sc.boundary = append(sc.boundary, boundaryEdge{pi: int32(pi), other: e.ID, count: 2 * e.N})
			}
		}
	}
	for _, id := range ids {
		ws.posOf[id] = -1
	}
}

// Evidence states, in the read set and the workspace's dense
// vector. A zero byte means "not translated yet"; translated entries
// carry stFilled plus the membership bits, so pos∩neg overlaps keep the
// exact semantics of the original per-set lookups (neg wins for the echo,
// pos alone drives support bonuses).
const (
	stFilled uint8 = 1 << 7
	stPos    uint8 = 1
	stNeg    uint8 = 2
)

// workspace is the per-call scratch of one Match / MaximalMessages /
// LogScore invocation, pooled on the matcher. state and posOf are sized
// to the global candidate-pair universe.
type workspace struct {
	state   []uint8 // dense score view (LogScore), indexed by candidate-pair id
	touched []int32 // state indices to zero on release
	posOf   []int32 // global pair id -> scope position (-1 outside)
	slots   []int32 // scope position -> free-variable slot (-1 decided)
	fp      []uint8 // the read-set states by scope position (see readSet)

	// localModel backing storage (free/eff/deg/edges) plus the solver
	// assignment; see buildLocal.
	free  []int32
	eff   []float64
	deg   []int32
	edges []Edge
	x     []bool
	out   []int32 // the match ids before they are copied out

	eph   scope          // ephemeral skeleton of a neighborhood outside the prepared cover
	mm    maximalScratch // Algorithm 2's component bookkeeping
	small smallScratch   // MatchIDs' network for components of ≥ 3 variables
}

// getWS hands out a clean workspace.
func (m *Matcher) getWS() *workspace {
	ws := m.wsPool.Get().(*workspace)
	return ws
}

// putWS zeroes the touched state entries and returns ws to the pool.
func (m *Matcher) putWS(ws *workspace) {
	st := ws.state
	for _, id := range ws.touched {
		st[id] = 0
	}
	ws.touched = ws.touched[:0]
	m.wsPool.Put(ws)
}

// newWorkspace sizes a workspace for the candidate universe.
func newWorkspace(numPairs int) *workspace {
	ws := &workspace{
		state: make([]uint8, numPairs),
		posOf: make([]int32, numPairs),
	}
	for i := range ws.posOf {
		ws.posOf[i] = -1
	}
	ws.mm.dsuComp = unionfind.New(0)
	ws.mm.dsuProbe = unionfind.New(0)
	return ws
}

// evidenceState is candidate pair id's state byte: stFilled plus its
// evidence membership bits.
func evidenceState(id int32, pos, neg *core.Evidence) uint8 {
	v := stFilled
	if pos.HasID(id) {
		v |= stPos
	}
	if neg.HasID(id) {
		v |= stNeg
	}
	return v
}

// readSet fills ws.fp with sc's read set — the evidence state of every
// scoped id, then of every boundary partner, which is all that buildLocal
// reads — and returns it. The slice aliases the workspace; copy before
// retaining.
func readSet(sc *scope, pos, neg *core.Evidence, ws *workspace) []uint8 {
	n := len(sc.ids)
	ws.fp = grow(ws.fp, n+len(sc.boundary))
	for i, id := range sc.ids {
		ws.fp[i] = evidenceState(id, pos, neg)
	}
	for j, be := range sc.boundary {
		ws.fp[n+j] = evidenceState(be.other, pos, neg)
	}
	return ws.fp
}

// localModel is the conditioned submodel of one neighborhood: the free
// match variables with their effective unary weights (base weight plus
// evidence-supported groundings) and the in-scope pairwise interactions.
// All slices are views into the owning workspace.
type localModel struct {
	free  []int32 // candidate pair ids
	eff   []float64
	edges []Edge // indices refer to positions in free
	deg   []int32
}

// buildLocal assembles the conditioned submodel from a prebuilt skeleton
// and the read-set states readSet left in ws.fp. It leaves ws.slots
// mapping every scope position to its free-variable slot, -1 for a
// position the evidence decides.
func (m *Matcher) buildLocal(sc *scope, ws *workspace) localModel {
	var lm localModel
	n, st := len(sc.ids), ws.fp
	if cap(ws.slots) < n {
		ws.slots = make([]int32, n)
	}
	slots := ws.slots[:n]
	free := ws.free[:0]
	for pi, id := range sc.ids {
		if st[pi] == stFilled { // in neither evidence set: free variable
			slots[pi] = int32(len(free))
			free = append(free, id)
		} else {
			slots[pi] = -1
		}
	}
	nf := len(free)
	if cap(ws.eff) < nf {
		ws.eff = make([]float64, nf)
		ws.deg = make([]int32, nf)
	}
	eff, deg := ws.eff[:nf], ws.deg[:nf]
	for fi, id := range free {
		eff[fi] = m.unary[id] + m.w.TieEps
		deg[fi] = 0
	}
	edges := ws.edges[:0]
	cw := m.w.Coauthor
	for _, e := range sc.edges {
		si, sj := slots[e.pi], slots[e.pj]
		switch {
		case si >= 0 && sj >= 0:
			edges = append(edges, Edge{I: int(si), J: int(sj), W: cw * float64(e.count)})
			deg[si]++
			deg[sj]++
		case si >= 0:
			if st[e.pj]&stPos != 0 {
				eff[si] += cw * float64(e.count)
			}
		case sj >= 0:
			if st[e.pi]&stPos != 0 {
				eff[sj] += cw * float64(e.count)
			}
		}
	}
	for j, be := range sc.boundary {
		if si := slots[be.pi]; si >= 0 && st[n+j]&stPos != 0 {
			eff[si] += cw * float64(be.count)
		}
	}
	ws.slots, ws.free, ws.edges = slots, free, edges
	lm.free, lm.eff, lm.deg, lm.edges = free, eff, deg, edges
	return lm
}

// scopeOf resolves the skeleton of neighborhood nb of cover c: the
// prepared one when c is the prepared cover, or an ephemeral skeleton
// built into the workspace over c.Sets[nb] for any other (Match's one-set
// covers, the weight learner's, a concurrent run over another cover).
func (m *Matcher) scopeOf(c *core.Cover, nb int32, ws *workspace) *scope {
	if p := m.prep.Load(); p != nil && p.scopes.Cover() == c {
		return &p.skel[nb]
	}
	ws.eph.ids = m.table.AppendScopeIDs(ws.eph.ids[:0], c.Sets[nb])
	m.linkScope(ws.eph.ids, ws, &ws.eph)
	return &ws.eph
}

var _ core.ScopePreparer = (*Matcher)(nil)
