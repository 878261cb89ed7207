// Package testmodel provides a small, exactly-solvable supermodular
// pairwise match model used as the reference matcher throughout the test
// suites: its MAP inference is brute force over all subsets of candidate
// pairs, so framework properties (soundness, consistency, completeness)
// and the MLN matcher's graph-cut inference can both be validated against
// ground-truth-optimal outputs.
//
// The model is the abstract form of the paper's §2.1 example: each
// candidate pair carries a unary weight (the R1-style similarity rules)
// and unordered pair-of-pairs interactions carry non-negative weights
// (the R2-style relational rule). Score(S) = Σ unary + Σ interactions
// within S, plus a small per-pair inclusion bonus that realizes the
// "largest most-likely set" tie-break of Definition 5.
package testmodel

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
)

// TieEps is the per-pair inclusion bonus; small enough to never override
// a real weight difference in tests.
const TieEps = 1e-6

// nonCandidatePenalty is the log-score of any set containing a pair the
// model has no variable for (probability ≈ 0).
const nonCandidatePenalty = -1e12

// Interaction names an unordered pair of pairs.
type Interaction struct {
	P, Q core.Pair
}

// MakeInteraction normalizes the order of the two pairs.
func MakeInteraction(p, q core.Pair) Interaction {
	if q.A < p.A || (q.A == p.A && q.B < p.B) {
		p, q = q, p
	}
	return Interaction{p, q}
}

// Model is a supermodular pairwise model over entities [0, N).
type Model struct {
	N     int
	Unary map[core.Pair]float64
	Inter map[Interaction]float64 // weights must be ≥ 0 for supermodularity

	rel *graph.Graph // lazily built relation graph for Affected()
}

// New returns an empty model over n entities.
func New(n int) *Model {
	return &Model{
		N:     n,
		Unary: map[core.Pair]float64{},
		Inter: map[Interaction]float64{},
	}
}

// AddPair declares a candidate pair with the given unary weight.
func (m *Model) AddPair(a, b core.EntityID, w float64) core.Pair {
	p := core.MakePair(a, b)
	m.Unary[p] = w
	return p
}

// AddInteraction declares a non-negative interaction between two declared
// pairs. Panics on negative weights (the model must stay supermodular)
// and undeclared pairs — these are programming errors in tests.
func (m *Model) AddInteraction(p, q core.Pair, w float64) {
	if w < 0 {
		panic("testmodel: negative interaction breaks supermodularity")
	}
	if _, ok := m.Unary[p]; !ok {
		panic("testmodel: interaction references undeclared pair")
	}
	if _, ok := m.Unary[q]; !ok {
		panic("testmodel: interaction references undeclared pair")
	}
	m.Inter[MakeInteraction(p, q)] = w
}

// Relation returns a graph connecting the entities of interacting pairs —
// a stand-in for the Coauthor relation, suitable for Cover.Affected. Two
// entities are related when some interaction (or unary pair) links their
// pairs: each pair's endpoints are connected, and for every interaction
// the four endpoint entities are pairwise connected across the two pairs.
func (m *Model) Relation() *graph.Graph {
	if m.rel != nil {
		return m.rel
	}
	b := graph.NewBuilder(m.N)
	for p := range m.Unary {
		b.AddEdge(p.A, p.B)
	}
	for in := range m.Inter {
		b.AddEdge(in.P.A, in.Q.A)
		b.AddEdge(in.P.A, in.Q.B)
		b.AddEdge(in.P.B, in.Q.A)
		b.AddEdge(in.P.B, in.Q.B)
	}
	m.rel = b.Build()
	return m.rel
}

// Candidates implements core.Matcher: the declared pairs whose endpoints
// both lie in the entity set, in deterministic order.
func (m *Model) Candidates(entities []core.EntityID) []core.Pair {
	in := make(map[core.EntityID]bool, len(entities))
	for _, e := range entities {
		in[e] = true
	}
	var out []core.Pair
	for p := range m.Unary {
		if in[p.A] && in[p.B] {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// LogScore implements core.Probabilistic over the full model.
func (m *Model) LogScore(s core.PairSet) float64 {
	total := 0.0
	for p := range s.All() {
		w, ok := m.Unary[p]
		if !ok {
			return nonCandidatePenalty
		}
		total += w + TieEps
	}
	for in, w := range m.Inter {
		if s.Has(in.P) && s.Has(in.Q) {
			total += w
		}
	}
	return total
}

// Match implements core.Matcher by brute-force exact MAP over the free
// candidate pairs within the entity set, conditioned on the evidence:
// pairs in pos are clamped true (and included in the output when both
// endpoints are in scope), pairs in neg are clamped false. Interactions
// with out-of-scope or evidence pairs contribute as unary bonuses —
// exactly how a conditioned submodel behaves.
func (m *Model) Match(entities []core.EntityID, pos, neg core.PairSet) core.PairSet {
	cands := m.Candidates(entities)
	// Split into clamped and free variables.
	var free []core.Pair
	out := core.NewPairSet()
	for _, p := range cands {
		switch {
		case neg.Has(p):
		case pos.Has(p):
			out.Add(p)
		default:
			free = append(free, p)
		}
	}
	if len(free) > 25 {
		panic("testmodel: too many free variables for brute force")
	}
	// Effective unary for free pairs: base + interactions with true
	// evidence (in or out of scope — the model is global).
	eff := make([]float64, len(free))
	idx := make(map[core.Pair]int, len(free))
	for i, p := range free {
		idx[p] = i
		eff[i] = m.Unary[p] + TieEps
	}
	type link struct {
		i, j int
		w    float64
	}
	var links []link
	for in, w := range m.Inter {
		i, iok := idx[in.P]
		j, jok := idx[in.Q]
		switch {
		case iok && jok:
			links = append(links, link{i, j, w})
		case iok && pos.Has(in.Q):
			eff[i] += w
		case jok && pos.Has(in.P):
			eff[j] += w
		}
	}
	bestMask, bestScore := 0, math.Inf(-1)
	for mask := 0; mask < 1<<len(free); mask++ {
		score := 0.0
		for i := range free {
			if mask&(1<<i) != 0 {
				score += eff[i]
			}
		}
		for _, l := range links {
			if mask&(1<<l.i) != 0 && mask&(1<<l.j) != 0 {
				score += l.w
			}
		}
		if score > bestScore {
			bestScore, bestMask = score, mask
		}
	}
	for i, p := range free {
		if bestMask&(1<<i) != 0 {
			out.Add(p)
		}
	}
	return out
}

// DecideGiven implements core.ConditionalDecider: p is matched when its
// conditional weight given the clamped assignment of all other pairs is
// non-negative (including the inclusion bonus).
func (m *Model) DecideGiven(p core.Pair, given core.PairSet) bool {
	w, ok := m.Unary[p]
	if !ok {
		return false
	}
	delta := w + TieEps
	for in, iw := range m.Inter {
		var other core.Pair
		switch p {
		case in.P:
			other = in.Q
		case in.Q:
			other = in.P
		default:
			continue
		}
		if other != p && given.Has(other) {
			delta += iw
		}
	}
	return delta >= 0
}

var (
	_ core.Matcher            = (*Model)(nil)
	_ core.Probabilistic      = (*Model)(nil)
	_ core.ConditionalDecider = (*Model)(nil)
)

// PaperExample builds the §2.1/§2.2 running example of the paper:
//
//	entities: a1 a2 b1 b2 b3 c1 c2 c3 (d1's reflexive support is folded
//	into the unary weight of (c1,c2), as in the paper's own reading)
//
//	unary:  (c1,c2) = R1+R2 = −5+8 = +3, all other similar pairs −5
//	inter:  (b1,b2)↔(c1,c2), (a1,a2)↔(b2,b3), (b2,b3)↔(c2,c3), each +8
//
// The full-EM optimum matches all five pairs. A NO-MP run over the
// returned cover finds only (c1,c2); SMP additionally recovers (b1,b2);
// only MMP recovers the 3-chain {(a1,a2),(b2,b3),(c2,c3)}.
func PaperExample() (m *Model, cover *core.Cover, ids map[string]core.EntityID) {
	names := []string{"a1", "a2", "b1", "b2", "b3", "c1", "c2", "c3", "d1"}
	ids = map[string]core.EntityID{}
	for i, n := range names {
		ids[n] = core.EntityID(i)
	}
	m = New(len(names))
	a12 := m.AddPair(ids["a1"], ids["a2"], -5)
	b12 := m.AddPair(ids["b1"], ids["b2"], -5)
	b23 := m.AddPair(ids["b2"], ids["b3"], -5)
	c12 := m.AddPair(ids["c1"], ids["c2"], 3) // −5 + 8 via shared coauthor d1
	c23 := m.AddPair(ids["c2"], ids["c3"], -5)
	m.AddInteraction(b12, c12, 8)
	m.AddInteraction(a12, b23, 8)
	m.AddInteraction(b23, c23, 8)

	cover = core.NewCover(len(names), [][]core.EntityID{
		{ids["a1"], ids["a2"], ids["b2"], ids["b3"]},            // C1
		{ids["b1"], ids["b2"], ids["b3"], ids["c2"], ids["c3"]}, // C2
		{ids["c1"], ids["c2"], ids["c3"], ids["d1"]},            // C3
	})
	return m, cover, ids
}

// Random builds a random supermodular model over 6–10 entities (mostly
// negative unaries, non-negative interactions) and a random cover of 2–4
// neighborhoods, each a random subset, patched so every entity is
// covered. Free-variable counts stay brute-forceable.
func Random(rng *rand.Rand) (*Model, *core.Cover) {
	n := 6 + rng.Intn(5)
	m := New(n)
	var pairs []core.Pair
	target := 4 + rng.Intn(6)
	for len(pairs) < target {
		a, b := core.EntityID(rng.Intn(n)), core.EntityID(rng.Intn(n))
		if a == b {
			continue
		}
		p := core.MakePair(a, b)
		if _, ok := m.Unary[p]; ok {
			continue
		}
		m.AddPair(p.A, p.B, -6+rng.Float64()*8)
		pairs = append(pairs, p)
	}
	nInter := rng.Intn(2 * len(pairs))
	for i := 0; i < nInter; i++ {
		p, q := pairs[rng.Intn(len(pairs))], pairs[rng.Intn(len(pairs))]
		if p == q {
			continue
		}
		m.AddInteraction(p, q, rng.Float64()*9)
	}
	k := 2 + rng.Intn(3)
	sets := make([][]core.EntityID, k)
	for e := 0; e < n; e++ {
		placed := false
		for s := 0; s < k; s++ {
			if rng.Float64() < 0.55 {
				sets[s] = append(sets[s], core.EntityID(e))
				placed = true
			}
		}
		if !placed {
			sets[rng.Intn(k)] = append(sets[rng.Intn(k)], core.EntityID(e))
		}
	}
	return m, core.NewCover(n, sets)
}
