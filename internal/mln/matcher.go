package mln

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bib"
	"repro/internal/core"
	"repro/internal/similarity"
)

// Weights are the MLN rule weights. Default values are the learned
// weights the paper reports in Appendix B.
type Weights struct {
	Sim1     float64 // similar(e1,e2,1) ⇒ equals
	Sim2     float64 // similar(e1,e2,2) ⇒ equals
	Sim3     float64 // similar(e1,e2,3) ⇒ equals
	Coauthor float64 // coauthor-support rule; must be ≥ 0 for supermodularity

	// SelfCite weights the optional citation rule — an extension
	// exercising Example 1's Cites relation, not part of the paper's
	// Appendix B program (default 0 = disabled):
	//
	//	similar(e1,e2,_) ∧ cites(paper(e1), paper(e2)) ⇒ equals(e1,e2)
	//
	// capturing that authors disproportionately cite their own earlier
	// work. The feature is unary (it never couples two match variables),
	// so any weight preserves supermodularity.
	SelfCite float64

	// TieEps is the per-pair inclusion bonus realizing Definition 5's
	// "largest most-likely set" tie-break. It must be far smaller than
	// the smallest non-zero weight combination (weights have two
	// decimals, so any real score difference is ≥ 0.01).
	TieEps float64
}

// PaperWeights returns the Appendix B learned weights.
func PaperWeights() Weights {
	return Weights{Sim1: -2.28, Sim2: -3.84, Sim3: 12.75, Coauthor: 2.46, TieEps: 1e-9}
}

func (w Weights) sim(l similarity.Level) float64 {
	switch l {
	case similarity.LevelWeak:
		return w.Sim1
	case similarity.LevelMedium:
		return w.Sim2
	case similarity.LevelStrong:
		return w.Sim3
	default:
		return 0
	}
}

// Validate reports weight configurations that break the matcher's
// theoretical guarantees.
func (w Weights) Validate() error {
	if w.Coauthor < 0 {
		return fmt.Errorf("mln: negative coauthor weight %v breaks supermodularity", w.Coauthor)
	}
	if w.TieEps < 0 || w.TieEps > 1e-3 {
		return fmt.Errorf("mln: TieEps %v out of sane range (0, 1e-3]", w.TieEps)
	}
	return nil
}

// interEdge is one interaction partner of a candidate pair: matching
// pairs[other] contributes count coauthor-rule groundings to this pair.
type interEdge struct {
	other int32
	count int32
}

// Matcher is the ground MLN over one dataset's candidate pairs. It
// implements core.Matcher, core.Probabilistic, core.ConditionalDecider,
// core.ScopePreparer and the engine's dense extension
// (core.DenseProbabilistic). The model (pairs, weights,
// interactions) is immutable after construction; Match uses only pooled
// per-call state and the matcher is safe for concurrent use.
//
// Candidate ids are positions in (A, B) order — packed-key order — so
// the candidates with first endpoint e are the id range
// first[e]..first[e+1], ascending in B: a pair is found by a binary
// search of its A's range, and ascending ids are ascending keys, which
// is what lets the engine exchange id lists for key batches unsorted.
type Matcher struct {
	w        Weights
	pairs    []core.Pair
	first    []int32 // entity e -> first id with A == e; len n+1
	level    []similarity.Level
	reflex   []int32 // reflexive coauthor groundings per pair (both roles)
	selfCite []int8  // 1 when the pair's papers cite each other (extension)
	unary    []float64
	adj      [][]interEdge
	n        int // number of entities

	// scopes caches per-neighborhood skeletons for the prepared cover
	// (core.ScopePreparer); wsPool recycles per-call workspaces with
	// dense evidence views. See scope.go.
	scopes atomic.Pointer[core.CoverScopes[scope]]
	wsPool sync.Pool

	// Verdict-memo state (see memo.go): memoOff disables the layer for
	// differential tests; the counters back core.CacheReporter.
	memoOff     bool
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	cacheInvals atomic.Int64
}

// Candidate is one match variable: a reference pair with its discretized
// similarity level.
type Candidate struct {
	Pair  core.Pair
	Level similarity.Level
}

// ErrCandidateRange marks a candidate pair with an endpoint that is not a
// reference of the dataset.
var ErrCandidateRange = errors.New("mln: candidate pair outside the dataset")

// New grounds the MLN for a dataset over the given candidate pairs
// (typically canopy.CandidatePairs of a total cover). Groundings of the
// coauthor rule are precomputed: for each candidate pair p = (e1, e2) and
// each (c1, c2) ∈ N(e1) × N(e2) of the Coauthor graph, the rule fires
// once per role assignment — twice per combination — when (c1, c2) is
// matched, and c1 = c2 (the trivial reflexivity match of §2.1) yields a
// constant unary bonus.
//
// Candidate ids follow (A, B) order. Blocking emits the candidates in
// that order and the validation pass below only verifies it; candidates
// in any other order are sorted first (a copy — the caller's slice is
// left alone), so ids, levels and interactions are consistent either way.
func New(d *bib.Dataset, cands []Candidate, w Weights) (*Matcher, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	n := d.NumRefs()
	sorted := true
	for i, c := range cands {
		if !c.Pair.Valid() {
			return nil, fmt.Errorf("mln: invalid candidate pair %v", c.Pair)
		}
		if c.Pair.A < 0 || int(c.Pair.B) >= n {
			return nil, fmt.Errorf("%w: %v, references are 0..%d", ErrCandidateRange, c.Pair, n-1)
		}
		if i > 0 && cands[i-1].Pair.Key() >= c.Pair.Key() {
			sorted = false
		}
	}
	if !sorted {
		cands = slices.Clone(cands)
		slices.SortFunc(cands, func(a, b Candidate) int { return cmp.Compare(a.Pair.Key(), b.Pair.Key()) })
		for i := 1; i < len(cands); i++ {
			if cands[i].Pair == cands[i-1].Pair {
				return nil, fmt.Errorf("mln: duplicate candidate pair %v", cands[i].Pair)
			}
		}
	}
	m := &Matcher{
		w:        w,
		pairs:    make([]core.Pair, len(cands)),
		first:    make([]int32, n+1),
		level:    make([]similarity.Level, len(cands)),
		reflex:   make([]int32, len(cands)),
		selfCite: make([]int8, len(cands)),
		unary:    make([]float64, len(cands)),
		adj:      make([][]interEdge, len(cands)),
		n:        n,
	}
	for i, c := range cands {
		m.pairs[i] = c.Pair
		m.level[i] = c.Level
		m.first[c.Pair.A+1]++
	}
	for e := 0; e < n; e++ {
		m.first[e+1] += m.first[e]
	}
	co := d.Coauthor()
	cites := citesIndex(d)
	// The O(deg²) coauthor loop collects interaction partners into a
	// reusable scratch slice and merges duplicates by a sort + run-length
	// pass — no per-pair map allocation, clearing, or rehashing. Each
	// (c1, c2) combination fires the rule twice (two role assignments), so
	// a run of length r becomes count 2r; sorting keeps adj ascending by
	// partner id, identical to the old map+sort construction.
	var scratch []int32
	for i := range m.pairs {
		p := m.pairs[i]
		scratch = scratch[:0]
		reflex := 0
		for _, c1 := range co.Neighbors(p.A) {
			for _, c2 := range co.Neighbors(p.B) {
				if c1 == c2 {
					reflex++
					continue
				}
				if j, ok := m.find(core.MakePair(c1, c2)); ok && int(j) != i {
					scratch = append(scratch, j)
				}
			}
		}
		m.reflex[i] = int32(2 * reflex)
		// Self-citation groundings (extension; zero-weight by default).
		pa, pb := d.Refs[p.A].Paper, d.Refs[p.B].Paper
		if cites[[2]int32{pa, pb}] || cites[[2]int32{pb, pa}] {
			m.selfCite[i] = 1
		}
		if len(scratch) > 0 {
			slices.Sort(scratch)
			edges := make([]interEdge, 0, len(scratch))
			for k := 0; k < len(scratch); {
				run := k + 1
				for run < len(scratch) && scratch[run] == scratch[k] {
					run++
				}
				edges = append(edges, interEdge{other: scratch[k], count: int32(2 * (run - k))})
				k = run
			}
			m.adj[i] = edges
		}
	}
	m.applyWeights()
	m.wsPool.New = func() any { return newWorkspace(len(m.pairs), m.n) }
	return m, nil
}

// applyWeights recomputes the unary vector from the current weights.
func (m *Matcher) applyWeights() {
	for i := range m.pairs {
		m.unary[i] = m.w.sim(m.level[i]) +
			m.w.Coauthor*float64(m.reflex[i]) +
			m.w.SelfCite*float64(m.selfCite[i])
	}
}

// citesIndex builds a set of directed (citing, cited) paper pairs.
func citesIndex(d *bib.Dataset) map[[2]int32]bool {
	idx := map[[2]int32]bool{}
	for p := range d.Papers {
		for _, c := range d.Papers[p].Cites {
			idx[[2]int32{int32(p), c}] = true
		}
	}
	return idx
}

// SetWeights replaces the rule weights and recomputes the ground model.
// Used by the weight learner between perceptron updates. NOT safe for
// concurrent use with Match; a Matcher is immutable once handed to the
// schemes.
func (m *Matcher) SetWeights(w Weights) error {
	if err := w.Validate(); err != nil {
		return err
	}
	m.w = w
	m.applyWeights()
	m.invalidateMemos() // skeletons are weight-independent; verdicts are not
	return nil
}

// CurrentWeights returns the active rule weights.
func (m *Matcher) CurrentWeights() Weights { return m.w }

// NumPairs returns the number of ground match variables ("matching
// decisions" in the paper's counting).
func (m *Matcher) NumPairs() int { return len(m.pairs) }

// Pairs returns all candidate pairs (aliases internal storage).
func (m *Matcher) Pairs() []core.Pair { return m.pairs }

// Level returns the similarity level of a candidate pair, or LevelNone.
func (m *Matcher) Level(p core.Pair) similarity.Level {
	if id, ok := m.find(p); ok {
		return m.level[id]
	}
	return similarity.LevelNone
}

// find returns the id of candidate pair p: a binary search for B in the
// id range of A. A pair with an endpoint outside the dataset — whatever
// an unvalidated key unpacks to — is no candidate and never indexes.
func (m *Matcher) find(p core.Pair) (int32, bool) {
	if p.A < 0 || int(p.A) >= m.n {
		return 0, false
	}
	lo, hi := m.first[p.A], m.first[p.A+1]
	for lo < hi {
		mid := int32(uint32(lo+hi) >> 1)
		if m.pairs[mid].B < p.B {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < m.first[p.A+1] && m.pairs[lo].B == p.B {
		return lo, true
	}
	return 0, false
}

// Candidates implements core.Matcher. For neighborhoods of a prepared
// cover (core.ScopePreparer) the answer is the skeleton's cached slice —
// callers must treat it as read-only.
func (m *Matcher) Candidates(entities []core.EntityID) []core.Pair {
	if sc := m.scopeFor(entities); sc != nil {
		return sc.pairs
	}
	ids := m.ScopeIDs(entities)
	out := make([]core.Pair, len(ids))
	for i, id := range ids {
		out[i] = m.pairs[id]
	}
	return out
}

// Match implements core.Matcher: exact conditional MAP inference over the
// candidate pairs inside the entity set. Evidence semantics follow §3.2:
// pos pairs are conditioned true (in or out of scope — an out-of-scope
// matched coauthor pair contributes its groundings as a unary bonus),
// neg pairs are conditioned false. The inference itself is MatchIDs.
func (m *Matcher) Match(entities []core.EntityID, pos, neg core.PairSet) core.PairSet {
	return core.MatchByIDs(m, entities, pos, neg)
}

// CandidateTable implements core.DenseMatcher: the id → pair table, in
// (A, B) order by construction.
func (m *Matcher) CandidateTable() []core.Pair { return m.pairs }

// MatchIDs implements core.DenseMatcher and is the inference core Match
// wraps: the evidence is read by candidate id, the output is the
// ascending ids of the matched in-scope candidates.
//
// On prepared cover neighborhoods the call first consults the scope's
// verdict memo (memo.go): when the read-set fingerprint matches the
// cached entry, the cached match set is returned without building or
// solving the submodel — provably the set recomputation would produce.
func (m *Matcher) MatchIDs(entities []core.EntityID, pos, neg *core.Evidence) []int32 {
	ws := m.getWS()
	defer m.putWS(ws)
	sc := m.scopeOf(entities, ws)
	memoKey := m.memoKey(sc, pos, neg, ws)
	if memoKey != nil {
		if out, ok := m.memoMatch(sc, memoKey); ok {
			return out
		}
	}
	lm := m.buildLocal(sc, pos, neg, ws)
	if cap(ws.x) < len(lm.free) {
		ws.x = make([]bool, len(lm.free))
	}
	x := ws.x[:len(lm.free)]
	if len(lm.free) > 0 {
		solveMAPInto(lm.eff, lm.edges, x)
	}
	// One sweep in scope order — id order — over the decided positions
	// (in-scope positive evidence is echoed) and the solved ones.
	out := ws.out[:0]
	for pi, id := range sc.ids {
		if fi := ws.slots[pi]; fi >= 0 {
			if x[fi] {
				out = append(out, id)
			}
		} else if v := ws.state[id]; v&stNeg == 0 && v&stPos != 0 {
			out = append(out, id)
		}
	}
	ws.out = out
	if memoKey != nil {
		m.memoStoreMatch(sc, memoKey, out)
	}
	return slices.Clone(out)
}

var (
	_ core.Matcher            = (*Matcher)(nil)
	_ core.Probabilistic      = (*Matcher)(nil)
	_ core.ConditionalDecider = (*Matcher)(nil)
	_ core.DenseProbabilistic = (*Matcher)(nil)
)
