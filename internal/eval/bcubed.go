package eval

import (
	"repro/internal/core"
	"repro/internal/flat"
	"repro/internal/unionfind"
)

// This file adds cluster-level evaluation: pairwise P/R/F1 (the paper's
// metric) under-weights small clusters, so entity-resolution practice
// also reports B-cubed (Bagga & Baldwin): per-entity precision/recall of
// the predicted cluster against the gold cluster, averaged over entities.

// ClustersFromMatches turns a match set over n entities into dense
// cluster ids via transitive closure (each unmatched entity is its own
// cluster), numbered in order of first appearance.
func ClustersFromMatches(n int, matches core.PairSet) []int32 {
	dsu := unionfind.New(n)
	for p := range matches.All() {
		dsu.Union(int(p.A), int(p.B))
	}
	ids := make([]int32, n)
	of := make([]int32, n) // root -> its cluster id + 1, 0 until numbered
	next := int32(0)
	for i := range ids {
		r := dsu.Find(i)
		if of[r] == 0 {
			next++
			of[r] = next
		}
		ids[i] = of[r] - 1
	}
	return ids
}

// BCubed computes B-cubed precision, recall and F1 for a predicted
// clustering against gold labels. Both slices assign a cluster id per
// entity and must have equal length.
//
// Entity i's overlap — the entities in both its predicted and its gold
// cluster, itself included — is its cell of the (predicted, gold)
// contingency table, counted per predicted cluster over a dense array of
// gold clusters, so the cost is linear in n whatever the cluster sizes. The
// per-entity terms are summed in ascending entity order.
func BCubed(predicted, gold []int32) PRF {
	n := len(predicted)
	if n == 0 || len(gold) != n {
		return PRF{Precision: 1, Recall: 1, F1: 1}
	}
	p, kp := dense(predicted)
	g, kg := dense(gold)
	off, byP := flat.Bucket(kp, func(yield func(int32, int32)) { // predicted cluster c holds byP[off[c]:off[c+1]]
		for i, c := range p {
			yield(c, int32(i))
		}
	})
	goldSize := make([]int32, kg)
	for _, c := range g {
		goldSize[c]++
	}
	overlap := make([]int32, n)
	cell := make([]int32, kg) // gold cluster -> members in the predicted cluster at hand
	for c := range kp {
		members := byP[off[c]:off[c+1]]
		for _, i := range members {
			cell[g[i]]++
		}
		for _, i := range members {
			overlap[i] = cell[g[i]]
		}
		for _, i := range members {
			cell[g[i]] = 0
		}
	}
	var sumP, sumR float64
	for i, o := range overlap {
		sumP += float64(o) / float64(off[p[i]+1]-off[p[i]])
		sumR += float64(o) / float64(goldSize[g[i]])
	}
	out := PRF{
		Precision: sumP / float64(n),
		Recall:    sumR / float64(n),
	}
	if out.Precision+out.Recall > 0 {
		out.F1 = 2 * out.Precision * out.Recall / (out.Precision + out.Recall)
	}
	return out
}

// dense renumbers labels 0, 1, ... in order of first appearance and returns
// how many distinct labels there are.
func dense(labels []int32) ([]int32, int) {
	ids := make([]int32, len(labels))
	of := map[int32]int32{}
	for i, l := range labels {
		id, ok := of[l]
		if !ok {
			id = int32(len(of))
			of[l] = id
		}
		ids[i] = id
	}
	return ids, len(of)
}

// BCubedFromMatches scores a match set directly against gold labels.
func BCubedFromMatches(matches core.PairSet, gold []int32) PRF {
	return BCubed(ClustersFromMatches(len(gold), matches), gold)
}
