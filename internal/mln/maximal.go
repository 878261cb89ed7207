package mln

import (
	"slices"

	"repro/internal/core"
	"repro/internal/unionfind"
)

// clampWeight forces a variable true in conditioned probes; it dwarfs any
// achievable score in a ground model.
const clampWeight = 1e9

// maximalScratch is the flat working memory of one MaximalMessages call,
// pooled inside the workspace. Components are materialized by counting
// sort over union-find roots instead of per-root maps, so a call
// allocates only the message slices it actually returns.
type maximalScratch struct {
	rootOf   []int32 // free var -> component root (-1 for isolated vars)
	varCnt   []int32 // per root: member count, then consumed as fill cursor
	varOff   []int32 // per root: start offset into varsBuf
	edgeCnt  []int32
	edgeOff  []int32
	varsBuf  []int32 // members of all components, grouped by root
	edgesBuf []Edge  // edges of all components, grouped by root
	localIdx []int32 // free var -> component-local index
	localMax []float64
	subEff   []float64
	subUnary []float64
	probes   []int32
	probeOut []bool  // len(probes) × component-size probe outputs, flat
	grpCnt   []int32 // per probe root: entailment-group size
	msgIdx   []int32 // per probe root: output message index (-1 until seen)
	dsuComp  *unionfind.DSU
	dsuProbe *unionfind.DSU
}

// grow returns s resized to n (contents unspecified).
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// MaximalMessages implements core.MaximalMessenger: MaximalMessagesIDs
// with the evidence and base translated to dense form first. A pair of
// base outside the candidate table is dropped — only candidates are ever
// probed.
func (m *Matcher) MaximalMessages(entities []core.EntityID, mPlus, neg, base core.PairSet) (msgs [][]core.Pair, calls int) {
	ids := make([]int32, 0, len(base))
	for k := range base {
		if id, ok := m.table.Find(k.Pair()); ok {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return m.MaximalMessagesIDs(entities, core.EvidenceOf(m.table, mPlus), core.EvidenceOf(m.table, neg), ids)
}

// MaximalMessagesIDs implements core.DenseProbabilistic — a specialized
// Algorithm 2 for the ground MLN. It builds the conditioned submodel
// once (from the prepared neighborhood skeleton when available),
// decomposes it into connected components of the local interaction graph
// (clamping a variable can only entail variables in its own component,
// so each probe solves just its component), probes only free pairs that
// can reach a non-negative score under total local support, and derives
// the mutual-entailment groups from the probe solutions. A probe on a
// two-variable component — nearly all of them on the bibliographic corpora
// — is pairMAP; larger components draw their flow networks from the shared
// solver pool, and all component bookkeeping comes from the pooled
// workspace. calls counts every probe either way.
// Prepared cover neighborhoods consult the scope's verdict memo first:
// when the read-set fingerprint matches a cached way AND base equals
// that way's match verdict (the Step-5 protocol — MatchIDs feeds its
// output straight back in), the cached message list is returned as a deep
// copy, skipping every probe solve. calls reports the cached probe count
// so run statistics stay identical with memoization on or off.
func (m *Matcher) MaximalMessagesIDs(entities []core.EntityID, mPlus, neg *core.Evidence, base []int32) (msgs [][]core.Pair, calls int) {
	ws := m.getWS()
	defer m.putWS(ws)
	sc := m.scopeOf(entities, ws)
	if key := m.memoKey(sc, mPlus, neg, ws); key != nil {
		cached, cachedCalls, hit, store := m.memoMsgs(sc, key, base)
		if hit {
			return cached, cachedCalls
		}
		if store {
			defer func() { m.memoStoreMsgs(sc, key, msgs, calls) }()
		}
	}
	lm := m.buildLocal(sc, mPlus, neg, ws)
	n := len(lm.free)
	if n == 0 {
		return nil, 0
	}
	mm := &ws.mm
	// Free variables already in base are not probed; the state vector
	// carries the mark (every scoped id was read by buildLocal, and an id
	// outside the scope is no free variable).
	for _, id := range base {
		if ws.state[id] != 0 {
			ws.state[id] |= stBase
		}
	}

	// Connected components of the local interaction graph. Isolated
	// variables (degree 0) yield only singleton messages and are dropped.
	comp := mm.dsuComp
	comp.Reset(n)
	for _, e := range lm.edges {
		comp.Union(e.I, e.J)
	}
	mm.rootOf = grow(mm.rootOf, n)
	mm.varCnt = grow(mm.varCnt, n)
	mm.edgeCnt = grow(mm.edgeCnt, n)
	for r := 0; r < n; r++ {
		mm.varCnt[r], mm.edgeCnt[r] = 0, 0
	}
	hasComp := false
	for fi := 0; fi < n; fi++ {
		if lm.deg[fi] == 0 {
			mm.rootOf[fi] = -1
			continue
		}
		r := int32(comp.Find(fi))
		mm.rootOf[fi] = r
		mm.varCnt[r]++
		hasComp = true
	}
	if !hasComp {
		return nil, 0
	}
	for _, e := range lm.edges {
		mm.edgeCnt[mm.rootOf[e.I]]++
	}

	// Counting sort: group members and edges by root, preserving the
	// ascending-variable and edge-list orders of the map-based original.
	mm.varOff = grow(mm.varOff, n)
	mm.edgeOff = grow(mm.edgeOff, n)
	sumV, sumE := int32(0), int32(0)
	for r := 0; r < n; r++ {
		mm.varOff[r], mm.edgeOff[r] = sumV, sumE
		sumV += mm.varCnt[r]
		sumE += mm.edgeCnt[r]
		mm.varCnt[r], mm.edgeCnt[r] = 0, 0 // reused as fill cursors
	}
	mm.varsBuf = grow(mm.varsBuf, int(sumV))
	mm.edgesBuf = grow(mm.edgesBuf, int(sumE))
	for fi := 0; fi < n; fi++ {
		if r := mm.rootOf[fi]; r >= 0 {
			mm.varsBuf[mm.varOff[r]+mm.varCnt[r]] = int32(fi)
			mm.varCnt[r]++
		}
	}
	for _, e := range lm.edges {
		r := mm.rootOf[e.I]
		mm.edgesBuf[mm.edgeOff[r]+mm.edgeCnt[r]] = e
		mm.edgeCnt[r]++
	}

	// Local support available to each variable.
	mm.localMax = grow(mm.localMax, n)
	copy(mm.localMax, lm.eff)
	for _, e := range lm.edges {
		mm.localMax[e.I] += e.W
		mm.localMax[e.J] += e.W
	}

	mm.localIdx = grow(mm.localIdx, n)
	// Components in first-seen (ascending first member) order.
	for first := 0; first < n; first++ {
		r := mm.rootOf[first]
		if r < 0 || int(mm.varsBuf[mm.varOff[r]]) != first {
			continue
		}
		vars := mm.varsBuf[mm.varOff[r] : mm.varOff[r]+mm.varCnt[r]]
		if len(vars) < 2 {
			continue
		}
		// Reindexed submodel for this component.
		mm.subEff = grow(mm.subEff, len(vars))
		for li, fi := range vars {
			mm.localIdx[fi] = int32(li)
			mm.subEff[li] = lm.eff[fi]
		}
		compEdges := mm.edgesBuf[mm.edgeOff[r] : mm.edgeOff[r]+mm.edgeCnt[r]]
		for i, e := range compEdges {
			compEdges[i] = Edge{I: int(mm.localIdx[e.I]), J: int(mm.localIdx[e.J]), W: e.W}
		}
		// Probe each viable variable in the component.
		mm.probes = mm.probes[:0]
		for li, fi := range vars {
			// A free variable is in neither evidence set, so base is the
			// only set that can already hold it.
			if ws.state[lm.free[fi]]&stBase != 0 || mm.localMax[fi] < 0 {
				continue
			}
			mm.probes = append(mm.probes, int32(li))
		}
		if len(mm.probes) == 0 {
			continue
		}
		k := len(vars)
		mm.probeOut = grow(mm.probeOut, len(mm.probes)*k)
		mm.subUnary = grow(mm.subUnary, k)
		for pi, li := range mm.probes {
			copy(mm.subUnary, mm.subEff[:k])
			mm.subUnary[li] = clampWeight
			out := mm.probeOut[pi*k : (pi+1)*k]
			if k == 2 && len(compEdges) == 1 {
				out[0], out[1] = pairMAP(mm.subUnary[0], mm.subUnary[1], compEdges[0].W)
			} else {
				solveMAPInto(mm.subUnary[:k], compEdges, out)
			}
			calls++
		}
		// Mutual entailment: probes p, q are grouped when each appears in
		// the other's conditioned output.
		dsu := mm.dsuProbe
		dsu.Reset(len(mm.probes))
		for pi, li := range mm.probes {
			for qj := pi + 1; qj < len(mm.probes); qj++ {
				lj := mm.probes[qj]
				if mm.probeOut[pi*k+int(lj)] && mm.probeOut[qj*k+int(li)] {
					dsu.Union(pi, qj)
				}
			}
		}
		mm.grpCnt = grow(mm.grpCnt, len(mm.probes))
		mm.msgIdx = grow(mm.msgIdx, len(mm.probes))
		for pi := range mm.probes {
			mm.grpCnt[pi], mm.msgIdx[pi] = 0, -1
		}
		for pi := range mm.probes {
			mm.grpCnt[dsu.Find(pi)]++
		}
		// Materialize only the non-singleton groups (singletons are
		// subsumed by evidence-driven re-evaluation), in first-seen order.
		for pi, li := range mm.probes {
			gr := dsu.Find(pi)
			if mm.grpCnt[gr] < 2 {
				continue
			}
			if mm.msgIdx[gr] < 0 {
				mm.msgIdx[gr] = int32(len(msgs))
				msgs = append(msgs, make([]core.Pair, 0, mm.grpCnt[gr]))
			}
			mi := mm.msgIdx[gr]
			msgs[mi] = append(msgs[mi], m.table.Pair(lm.free[vars[li]]))
		}
	}
	return msgs, calls
}

var _ core.MaximalMessenger = (*Matcher)(nil)
