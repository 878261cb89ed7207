package mln

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bib"
	"repro/internal/canopy"
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

// Matcher is the ground MLN over one dataset's candidate table. It
// implements core.Matcher, core.Probabilistic, core.ConditionalDecider,
// core.ScopePreparer and the engine's dense extension
// (core.DenseProbabilistic). The model (table, weights, interactions) is
// immutable after construction; Match uses only pooled per-call state and
// the matcher is safe for concurrent use.
//
// Ids, id ranges, the pair → id search, neighborhood scoping and the
// coauthor join all belong to the core.CandidateTable, which the matcher
// shares with the engine and with any other matcher ground over the same
// candidates. What is the MLN's own: the weights, the level column, the
// unary scores, and per prepared neighborhood the interaction skeleton
// and the verdict memo.
type Matcher struct {
	w        Weights
	table    *core.CandidateTable
	sup      *core.Supports // coauthor-rule groundings: 2·N per support, 2·Shared reflexive
	level    []similarity.Level
	selfCite []int8 // 1 when the pair's papers cite each other (extension)
	unary    []float64

	// prep holds the skeletons of the prepared cover (core.ScopePreparer);
	// wsPool recycles per-call workspaces with dense evidence views. See
	// scope.go.
	prep   atomic.Pointer[prepared]
	wsPool sync.Pool

	// Verdict-memo state (see memo.go): memoOff disables the layer for
	// differential tests; the counters back core.CacheReporter.
	memoOff     bool
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	cacheInvals atomic.Int64
}

// Candidate is one match variable as blocking emits it: a reference pair
// with its discretized similarity level.
type Candidate = canopy.SimilarPair

// New grounds the MLN for a dataset over the given candidate pairs
// (typically canopy.CandidatePairs of a total cover): it builds their
// core.CandidateTable — candidates in any order, validated there — and
// grounds over it.
func New(d *bib.Dataset, cands []Candidate, w Weights) (*Matcher, error) {
	t, cands, err := core.TableOf(d.NumRefs(), cands, func(c Candidate) core.Pair { return c.Pair })
	if err != nil {
		return nil, err
	}
	return Ground(d, t, canopy.Levels(cands), w)
}

// Ground grounds the MLN over a candidate table of the dataset and the
// level column in table order (kept, not copied). Groundings of the
// coauthor rule come from the table's support join: for candidate
// p = (e1, e2) and each (c1, c2) ∈ N(e1) × N(e2) of the Coauthor graph the
// rule fires once per role assignment — twice per combination — when
// (c1, c2) is matched, and c1 = c2 (the trivial reflexivity match of
// §2.1) yields a constant unary bonus.
func Ground(d *bib.Dataset, t *core.CandidateTable, levels []similarity.Level, w Weights) (*Matcher, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if len(levels) != t.Len() {
		return nil, fmt.Errorf("mln: %d levels for %d candidates", len(levels), t.Len())
	}
	m := &Matcher{
		w:        w,
		table:    t,
		sup:      t.Supports(d.Coauthor()),
		level:    levels,
		selfCite: make([]int8, t.Len()),
		unary:    make([]float64, t.Len()),
	}
	// Self-citation groundings (extension; zero-weight by default).
	cites := citesIndex(d)
	for id, p := range t.Pairs() {
		pa, pb := d.Refs[p.A].Paper, d.Refs[p.B].Paper
		if cites[[2]int32{pa, pb}] || cites[[2]int32{pb, pa}] {
			m.selfCite[id] = 1
		}
	}
	m.applyWeights()
	m.wsPool.New = func() any { return newWorkspace(t.Len()) }
	return m, nil
}

// applyWeights recomputes the unary vector from the current weights.
func (m *Matcher) applyWeights() {
	for i := range m.unary {
		m.unary[i] = m.w.sim(m.level[i]) +
			m.w.Coauthor*float64(2*m.sup.Shared(int32(i))) +
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
func (m *Matcher) NumPairs() int { return m.table.Len() }

// Pairs returns all candidate pairs (the table's; read-only).
func (m *Matcher) Pairs() []core.Pair { return m.table.Pairs() }

// Level returns the similarity level of a candidate pair, or LevelNone.
func (m *Matcher) Level(p core.Pair) similarity.Level {
	if id, ok := m.table.Find(p); ok {
		return m.level[id]
	}
	return similarity.LevelNone
}

// Candidates implements core.Matcher: the table's candidates over the
// entity set, materialized on each call.
func (m *Matcher) Candidates(entities []core.EntityID) []core.Pair {
	return m.table.Candidates(entities)
}

// Match implements core.Matcher: exact conditional MAP inference over the
// candidate pairs inside the entity set. Evidence semantics follow §3.2:
// pos pairs are conditioned true (in or out of scope — an out-of-scope
// matched coauthor pair contributes its groundings as a unary bonus),
// neg pairs are conditioned false. The inference itself is MatchIDs.
func (m *Matcher) Match(entities []core.EntityID, pos, neg core.PairSet) core.PairSet {
	return core.MatchByIDs(m, entities, pos, neg)
}

// CandidateTable implements core.DenseMatcher.
func (m *Matcher) CandidateTable() *core.CandidateTable { return m.table }

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
