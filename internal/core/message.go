package core

import (
	"repro/internal/unionfind"
)

// MessageStore maintains the set T of maximal messages of Algorithm 3,
// keeping it closed under the (T ∪ TC)* operation: overlapping messages
// are replaced by their union (sound by Proposition 3(ii)). The closure
// is maintained incrementally with a union-find keyed by pair.
type MessageStore struct {
	idOf  map[PairKey]int
	pairs []Pair
	// cand[i] is pairs[i]'s candidate id in the run's evidence table, -1
	// outside it (always, for a store without one): resolved once when
	// the pair enters the store, so promotion tests membership by bit.
	cand   []int32
	table  *CandidateTable // the table cand refers to; nil for a bare store
	dsu    *unionfind.DSU
	cached [][]int // memoized components(); nil after a mutating Add
}

func NewMessageStore() *MessageStore { return newMessageStore(nil) }

// newMessageStore returns a store whose pairs are resolved against a
// plan's candidate table.
func newMessageStore(table *CandidateTable) *MessageStore {
	return &MessageStore{idOf: map[PairKey]int{}, table: table, dsu: unionfind.New(0)}
}

func (st *MessageStore) pairID(p Pair) int {
	if id, ok := st.idOf[p.Key()]; ok {
		return id
	}
	id := len(st.pairs)
	st.idOf[p.Key()] = id
	st.pairs = append(st.pairs, p)
	cand, ok := st.table.Find(p)
	if !ok {
		cand = -1
	}
	st.cand = append(st.cand, cand)
	st.dsu.Grow(id + 1)
	return id
}

// Add inserts one maximal message (a set of correlated pairs) and merges
// it with any overlapping messages already in the store. The memoized
// component view survives Adds that change nothing structurally — the
// common case once the message set has converged.
func (st *MessageStore) Add(msg []Pair) {
	if len(msg) == 0 {
		return
	}
	before := len(st.pairs)
	first := st.pairID(msg[0])
	changed := len(st.pairs) != before
	for _, p := range msg[1:] {
		if st.dsu.Union(first, st.pairID(p)) {
			changed = true
		}
	}
	if changed {
		st.cached = nil
	}
}

// components returns the current disjoint maximal messages — the
// connected components of the store — as lists of indices into pairs and
// cand, in deterministic order. The result is memoized until the next
// mutating Add — the promotion fixpoint rescans the store many times
// between mutations — and is read-only.
func (st *MessageStore) components() [][]int {
	if st.cached != nil {
		return st.cached
	}
	byRoot := map[int][]int{}
	var rootOrder []int
	for id := range st.pairs {
		r := st.dsu.Find(id)
		if _, ok := byRoot[r]; !ok {
			rootOrder = append(rootOrder, r)
		}
		byRoot[r] = append(byRoot[r], id)
	}
	out := make([][]int, 0, len(rootOrder))
	for _, r := range rootOrder {
		out = append(out, byRoot[r])
	}
	st.cached = out
	return out
}

// Messages returns the current disjoint maximal messages in deterministic
// order, as fresh slices.
func (st *MessageStore) Messages() [][]Pair {
	comps := st.components()
	if len(comps) == 0 {
		return nil
	}
	out := make([][]Pair, len(comps))
	for i, comp := range comps {
		msg := make([]Pair, len(comp))
		for x, id := range comp {
			msg[x] = st.pairs[id]
		}
		out[i] = msg
	}
	return out
}

// Size returns the number of distinct pairs currently carried by messages.
func (st *MessageStore) Size() int { return len(st.pairs) }

// ComputeMaximal is Algorithm 2: it derives the maximal messages of
// neighborhood entities under current evidence mPlus. For each unmatched
// candidate pair p it computes E(C, M+ ∪ {p}); two pairs are correlated
// when each appears in the other's conditioned output, and the connected
// components of the correlation graph are the maximal messages
// (Lemma 1 proves each component is maximal for well-behaved matchers).
//
// base must be E(C, M+) — the unconditioned output — so that already-
// matched pairs are excluded from probing. The number of matcher calls is
// returned for accounting.
func ComputeMaximal(m Matcher, entities []EntityID, mPlus, neg, base PairSet) (msgs [][]Pair, calls int) {
	if mm, ok := m.(MaximalMessenger); ok {
		return mm.MaximalMessages(entities, mPlus, neg, base)
	}
	filter, hasFilter := m.(ProbeFilter)
	var probes []Pair
	for _, p := range m.Candidates(entities) {
		if base.Has(p) || mPlus.Has(p) || neg.Has(p) {
			continue
		}
		if hasFilter && !filter.Probeable(p) {
			continue
		}
		probes = append(probes, p)
	}
	if len(probes) == 0 {
		return nil, 0
	}

	// outputs[i] = E(C, M+ ∪ {probes[i]})
	outputs := make([]PairSet, len(probes))
	for i, p := range probes {
		outputs[i] = m.Match(entities, mPlus.WithPair(p), neg)
		calls++
	}

	index := make(map[PairKey]int, len(probes))
	for i, p := range probes {
		index[p.Key()] = i
	}
	dsu := unionfind.New(len(probes))
	for i, p := range probes {
		for q := range outputs[i] {
			j, ok := index[q]
			if !ok || j <= i {
				continue
			}
			// Edge iff mutual entailment: q ∈ E(C, M+∪{p}) ∧ p ∈ E(C, M+∪{q}).
			if outputs[j].Has(p) {
				dsu.Union(i, j)
			}
		}
	}
	byRoot := map[int][]Pair{}
	var order []int
	for i, p := range probes {
		r := dsu.Find(i)
		if _, ok := byRoot[r]; !ok {
			order = append(order, r)
		}
		byRoot[r] = append(byRoot[r], p)
	}
	for _, r := range order {
		msgs = append(msgs, byRoot[r])
	}
	return msgs, calls
}
