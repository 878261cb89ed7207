package mln

import (
	"slices"

	"repro/internal/core"
	"repro/internal/unionfind"
)

// clampWeight forces a variable true in conditioned probes; it dwarfs any
// achievable score in a ground model.
const clampWeight = 1e9

// maximalScratch is the flat working memory of one Algorithm 2 run,
// pooled inside the workspace. Components are materialized by counting
// sort over union-find roots instead of per-root maps, and messages are
// written straight into the caller's CSR, so a run allocates nothing once
// the pools and that CSR are warm.
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
	fill     []int32 // per probe root: next write position in the CSR (-1 until seen)
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

// MaximalMessages implements core.MaximalMessenger by way of the fused
// evaluation, its messages translated to pairs. base is E(C, mPlus) by the
// interface's contract — the match set the evaluation solves for anyway —
// so it is not read. The entity set is evaluated as a cover of one
// neighborhood, scoped afresh. Like MatchMessagesIDs it leaves the
// verdict memo alone.
func (m *Matcher) MaximalMessages(entities []core.EntityID, mPlus, neg, base core.PairSet) (msgs [][]core.Pair, calls int) {
	var ids core.MessageIDs
	one := &core.Cover{Sets: [][]core.EntityID{entities}}
	_, calls = m.MatchMessagesIDs(one, 0, core.EvidenceOf(m.table, mPlus), core.EvidenceOf(m.table, neg), &ids)
	for i := range ids.Len() {
		msg := make([]core.Pair, len(ids.At(i)))
		for x, id := range ids.At(i) {
			msg[x] = m.table.Pair(id)
		}
		msgs = append(msgs, msg)
	}
	return msgs, calls
}

// MatchMessagesIDs implements core.DenseProbabilistic over one submodel,
// built from the prepared skeleton when c is the prepared cover and solved,
// then probed by a specialized Algorithm 2: per connected component of the
// local interaction graph (clamping a variable can only entail its own
// component), each free variable the solution leaves false that can reach a
// non-negative score under total local support is clamped and its component
// solved — by pairMAP on two variables, nearly every probe on the
// bibliographic corpora — and the mutual-entailment groups are the
// messages. calls counts every probe. The verdict memo is neither read nor
// filled: an MMP evaluation's evidence rarely repeats, so caching its
// verdicts cost more than it saved.
func (m *Matcher) MatchMessagesIDs(c *core.Cover, nb int32, mPlus, neg *core.Evidence, msgs *core.MessageIDs) (ids []int32, calls int) {
	ws := m.getWS()
	defer m.putWS(ws)
	lm, x, out := m.solveFresh(c, nb, mPlus, neg, ws)
	calls = m.maximal(lm, x, ws, msgs)
	return slices.Clone(out), calls
}

// maximal is Algorithm 2 over a solved submodel: it appends the messages
// of two or more variables to msgs and returns the probe count. x is the
// MAP assignment — the match set, whose variables are not probed.
func (m *Matcher) maximal(lm localModel, x []bool, ws *workspace, msgs *core.MessageIDs) (calls int) {
	n := len(lm.free)
	if n == 0 {
		return 0
	}
	mm := &ws.mm
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
		return 0
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
		compEdges := mm.edgesBuf[mm.edgeOff[r] : mm.edgeOff[r]+mm.edgeCnt[r]]
		if len(vars) == 2 && len(compEdges) == 1 {
			// Two variables joined by one edge, nearly every component on
			// the bibliographic corpora: the steps below in closed form.
			a, b, w := vars[0], vars[1], compEdges[0].W
			probeA, probeB := !x[a] && mm.localMax[a] >= 0, !x[b] && mm.localMax[b] >= 0
			if probeA != probeB {
				calls++
			} else if probeA {
				calls += 2
				_, bIn := pairMAP(clampWeight, lm.eff[b], w)
				if aIn, _ := pairMAP(lm.eff[a], clampWeight, w); aIn && bIn {
					msgs.IDs = append(msgs.IDs, lm.free[a], lm.free[b])
					msgs.Ends = append(msgs.Ends, int32(len(msgs.IDs)))
				}
			}
			continue
		}
		// Reindexed submodel for this component.
		mm.subEff = grow(mm.subEff, len(vars))
		for li, fi := range vars {
			mm.localIdx[fi] = int32(li)
			mm.subEff[li] = lm.eff[fi]
		}
		for i, e := range compEdges {
			compEdges[i] = Edge{I: int(mm.localIdx[e.I]), J: int(mm.localIdx[e.J]), W: e.W}
		}
		// Probe each viable variable in the component.
		mm.probes = mm.probes[:0]
		for li, fi := range vars {
			if x[fi] || mm.localMax[fi] < 0 {
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
			solveMAPInto(mm.subUnary[:k], compEdges, out)
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
		mm.fill = grow(mm.fill, len(mm.probes))
		for pi := range mm.probes {
			mm.grpCnt[pi], mm.fill[pi] = 0, -1
		}
		for pi := range mm.probes {
			mm.grpCnt[dsu.Find(pi)]++
		}
		// Materialize only the non-singleton groups (singletons are
		// subsumed by evidence-driven re-evaluation), in first-seen order:
		// a group's run of the CSR is reserved when its first member is.
		for pi, li := range mm.probes {
			gr := dsu.Find(pi)
			if mm.grpCnt[gr] < 2 {
				continue
			}
			if mm.fill[gr] < 0 {
				mm.fill[gr] = int32(len(msgs.IDs))
				msgs.IDs = append(msgs.IDs, make([]int32, mm.grpCnt[gr])...)
				msgs.Ends = append(msgs.Ends, int32(len(msgs.IDs)))
			}
			msgs.IDs[mm.fill[gr]] = lm.free[vars[li]]
			mm.fill[gr]++
		}
	}
	return calls
}

var _ core.MaximalMessenger = (*Matcher)(nil)
