package eval

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/unionfind"
)

func TestClustersFromMatches(t *testing.T) {
	m := ps([2]int32{0, 1}, [2]int32{1, 2}) // chain → one cluster {0,1,2}
	ids := ClustersFromMatches(5, m)
	if ids[0] != ids[1] || ids[1] != ids[2] {
		t.Errorf("chain not closed: %v", ids)
	}
	if ids[3] == ids[0] || ids[4] == ids[0] || ids[3] == ids[4] {
		t.Errorf("singletons merged: %v", ids)
	}
	// Dense ids starting at 0.
	seen := map[int32]bool{}
	for _, id := range ids {
		seen[id] = true
	}
	for i := int32(0); i < int32(len(seen)); i++ {
		if !seen[i] {
			t.Errorf("cluster ids not dense: %v", ids)
		}
	}
}

func TestBCubedPerfect(t *testing.T) {
	gold := []int32{0, 0, 1, 1, 2}
	m := BCubed(gold, gold)
	if !approx(m.Precision, 1) || !approx(m.Recall, 1) || !approx(m.F1, 1) {
		t.Errorf("perfect clustering scored %v", m)
	}
}

func TestBCubedAllSingletons(t *testing.T) {
	gold := []int32{0, 0, 1, 1}
	pred := []int32{0, 1, 2, 3}
	m := BCubed(pred, gold)
	if !approx(m.Precision, 1) {
		t.Errorf("singletons have perfect precision, got %v", m.Precision)
	}
	if !approx(m.Recall, 0.5) {
		t.Errorf("recall = %v, want 0.5", m.Recall)
	}
}

func TestBCubedAllMerged(t *testing.T) {
	gold := []int32{0, 0, 1, 1}
	pred := []int32{0, 0, 0, 0}
	m := BCubed(pred, gold)
	if !approx(m.Recall, 1) {
		t.Errorf("one big cluster has perfect recall, got %v", m.Recall)
	}
	if !approx(m.Precision, 0.5) {
		t.Errorf("precision = %v, want 0.5", m.Precision)
	}
}

func TestBCubedKnownValue(t *testing.T) {
	// gold: {0,1,2} {3,4}; pred: {0,1} {2,3} {4}
	gold := []int32{0, 0, 0, 1, 1}
	pred := []int32{0, 0, 1, 1, 2}
	m := BCubed(pred, gold)
	// precision: e0,e1: 2/2; e2: 1/2; e3: 1/2; e4: 1/1 → (1+1+.5+.5+1)/5 = 0.8
	if !approx(m.Precision, 0.8) {
		t.Errorf("precision = %v, want 0.8", m.Precision)
	}
	// recall: e0,e1: 2/3; e2: 1/3; e3: 1/2; e4: 1/2 → (2/3+2/3+1/3+.5+.5)/5
	want := (2.0/3 + 2.0/3 + 1.0/3 + 0.5 + 0.5) / 5
	if !approx(m.Recall, want) {
		t.Errorf("recall = %v, want %v", m.Recall, want)
	}
}

func TestBCubedEmpty(t *testing.T) {
	m := BCubed(nil, nil)
	if !approx(m.Precision, 1) || !approx(m.Recall, 1) {
		t.Errorf("empty input scored %v", m)
	}
	if got := BCubed([]int32{0}, []int32{0, 1}); !approx(got.Precision, 1) {
		t.Errorf("mismatched lengths must degrade gracefully: %v", got)
	}
}

// Property: refining the prediction (splitting clusters) never increases
// B³ recall and never decreases B³ precision.
func TestBCubedRefinement(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(12)
		gold := make([]int32, n)
		pred := make([]int32, n)
		for i := range gold {
			gold[i] = int32(rng.Intn(4))
			pred[i] = int32(rng.Intn(3))
		}
		// Refine pred: split each cluster in two by parity.
		refined := make([]int32, n)
		for i := range pred {
			refined[i] = pred[i]*2 + int32(i%2)
		}
		m0, m1 := BCubed(pred, gold), BCubed(refined, gold)
		if m1.Recall > m0.Recall+1e-12 {
			t.Fatalf("trial %d: refinement increased recall: %v -> %v", trial, m0.Recall, m1.Recall)
		}
		if m1.Precision < m0.Precision-1e-12 {
			t.Fatalf("trial %d: refinement decreased precision: %v -> %v", trial, m0.Precision, m1.Precision)
		}
	}
}

func TestBCubedFromMatches(t *testing.T) {
	gold := []int32{0, 0, 1}
	m := BCubedFromMatches(core.NewPairSet(core.MakePair(0, 1)), gold)
	if !approx(m.Precision, 1) || !approx(m.Recall, 1) {
		t.Errorf("exact match set scored %v", m)
	}
}

// clustersFromMatchesOld and bCubedOld are ClustersFromMatches and BCubed as
// they were before the dense contingency count — a map from root to cluster
// id, member lists in two maps and a fresh membership map per entity — kept
// as the oracle for the rewrite.
func clustersFromMatchesOld(n int, matches core.PairSet) []int32 {
	dsu := unionfind.New(n)
	for p := range matches.All() {
		dsu.Union(int(p.A), int(p.B))
	}
	ids := make([]int32, n)
	next := int32(0)
	seen := map[int]int32{}
	for i := 0; i < n; i++ {
		r := dsu.Find(i)
		id, ok := seen[r]
		if !ok {
			id = next
			next++
			seen[r] = id
		}
		ids[i] = id
	}
	return ids
}

func bCubedOld(predicted, gold []int32) PRF {
	n := len(predicted)
	if n == 0 || len(gold) != n {
		return PRF{Precision: 1, Recall: 1, F1: 1}
	}
	predMembers := map[int32][]int32{}
	goldMembers := map[int32][]int32{}
	for i := 0; i < n; i++ {
		predMembers[predicted[i]] = append(predMembers[predicted[i]], int32(i))
		goldMembers[gold[i]] = append(goldMembers[gold[i]], int32(i))
	}
	var sumP, sumR float64
	for i := 0; i < n; i++ {
		pc := predMembers[predicted[i]]
		gc := goldMembers[gold[i]]
		inGold := map[int32]bool{}
		for _, e := range gc {
			inGold[e] = true
		}
		overlap := 0
		for _, e := range pc {
			if inGold[e] {
				overlap++
			}
		}
		sumP += float64(overlap) / float64(len(pc))
		sumR += float64(overlap) / float64(len(gc))
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

// TestBCubedMatchesOld: on random labelings — all singletons, one cluster,
// clusters of hundreds, gold ids that are sparse, negative or extreme, and
// slices of unequal length — BCubed gives the old P, R and F1 to the bit
// (==, not approximately), and ClustersFromMatches the old ids for the
// closure of random match sets, scored against the same gold.
func TestBCubedMatchesOld(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	labelings := map[string]func(n int) []int32{
		"singletons": func(n int) []int32 {
			out := make([]int32, n)
			for i := range out {
				out[i] = int32(i)
			}
			return out
		},
		"one":      func(n int) []int32 { return make([]int32, n) },
		"hundreds": func(n int) []int32 { return randomLabels(rng, n, 1+n/300, 0) },
		"small":    func(n int) []int32 { return randomLabels(rng, n, 1+n/3, 0) },
		"sparse":   func(n int) []int32 { return randomLabels(rng, n, 1+n/5, 1_000_003) },
		"negative": func(n int) []int32 { return randomLabels(rng, n, 1+n/4, -7) },
		"extreme": func(n int) []int32 {
			ids := []int32{math.MinInt32, -1, 0, math.MaxInt32, 5}
			out := make([]int32, n)
			for i := range out {
				out[i] = ids[rng.Intn(len(ids))]
			}
			return out
		},
	}
	for trial := 0; trial < 24; trial++ {
		n := []int{0, 1, 2, 7, 60, 600}[trial%6] + rng.Intn(4)
		for pn, pred := range labelings {
			for gn, gold := range labelings {
				p, g := pred(n), gold(n)
				if got, want := BCubed(p, g), bCubedOld(p, g); got != want {
					t.Fatalf("n=%d predicted %s, gold %s: BCubed %+v, old %+v", n, pn, gn, got, want)
				}
			}
		}
		g := labelings["hundreds"](n)
		if got, want := BCubed(g, g[:n/2]), bCubedOld(g, g[:n/2]); got != want {
			t.Fatalf("n=%d, gold of length %d: BCubed %+v, old %+v", n, n/2, got, want)
		}
		matches := core.NewPairSet()
		for k := rng.Intn(2*n + 1); k > 0 && n > 1; k-- {
			if a, b := int32(rng.Intn(n)), int32(rng.Intn(n)); a != b {
				matches.Add(core.MakePair(a, b))
			}
		}
		ids, old := ClustersFromMatches(n, matches), clustersFromMatchesOld(n, matches)
		if !slices.Equal(ids, old) {
			t.Fatalf("n=%d, %d matches: ClustersFromMatches %v, old %v", n, matches.Len(), ids, old)
		}
		if got, want := BCubedFromMatches(matches, g), bCubedOld(old, g); got != want {
			t.Fatalf("n=%d, %d matches: BCubedFromMatches %+v, old %+v", n, matches.Len(), got, want)
		}
	}
}

// randomLabels draws n labels from k clusters of random sizes, numbered from
// base in steps of 3 (so not dense).
func randomLabels(rng *rand.Rand, n, k int, base int32) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = base + 3*int32(rng.Intn(k))
	}
	return out
}
