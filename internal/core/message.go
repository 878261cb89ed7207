package core

import (
	"slices"

	"repro/internal/flat"
	"repro/internal/unionfind"
)

// MessageIDs is a list of maximal messages in candidate-id form, as one
// CSR: message i is IDs[Ends[i-1]:Ends[i]] (from 0 for the first). It is
// what a DenseProbabilistic matcher appends an evaluation's messages to,
// and a Job carries. The zero value is empty; Reset keeps the capacity.
type MessageIDs struct {
	IDs  []int32
	Ends []int32
}

// Len returns the number of messages; none for a nil list.
func (m *MessageIDs) Len() int {
	if m == nil {
		return 0
	}
	return len(m.Ends)
}

// At returns message i; read-only.
func (m *MessageIDs) At(i int) []int32 { return m.IDs[m.start(i):m.Ends[i]] }

func (m *MessageIDs) start(i int) int32 {
	if i == 0 {
		return 0
	}
	return m.Ends[i-1]
}

// Reset empties the list, keeping its capacity.
func (m *MessageIDs) Reset() { m.IDs, m.Ends = m.IDs[:0], m.Ends[:0] }

// MessageStore maintains the set T of maximal messages of Algorithm 3,
// keeping it closed under the (T ∪ TC)* operation: overlapping messages
// are replaced by their union (sound by Proposition 3(ii)). Each distinct
// pair holds one store slot, and a union-find over the slots maintains
// the closure incrementally. A candidate id of the run's table finds its
// slot in a dense array over the table; only a pair outside the table —
// a warm seed's vanished candidate, or any pair of a matcher without the
// dense extension — goes through a map.
type MessageStore struct {
	table  *CandidateTable // the table candidate ids refer to; nil for a bare store
	slotOf []int32         // candidate id -> slot+1, 0 for none; allocated at the first id
	over   map[PairKey]int32
	pairs  []Pair  // slot -> pair
	cand   []int32 // slot -> candidate id, -1 outside the table: promotion tests bits
	dsu    *unionfind.DSU
	comps  MessageIDs // memoized components(), valid while fresh
	fresh  bool
	comp   []int32 // components' scratch: root slot -> component number, from 1
}

// newMessageStore returns a store whose pairs are resolved against a
// plan's candidate table.
func newMessageStore(table *CandidateTable) *MessageStore {
	return &MessageStore{table: table, over: map[PairKey]int32{}, dsu: unionfind.New(0)}
}

// idSlot returns candidate id's slot, opening one on first sight.
func (st *MessageStore) idSlot(id int32) int {
	if st.slotOf == nil {
		st.slotOf = make([]int32, st.table.Len())
	}
	if s := st.slotOf[id]; s > 0 {
		return int(s - 1)
	}
	st.slotOf[id] = int32(len(st.pairs)) + 1
	return st.newSlot(st.table.pairs[id], id)
}

// pairSlot is idSlot for a pair, by its candidate id when it has one.
func (st *MessageStore) pairSlot(p Pair) int {
	if id, ok := st.table.Find(p); ok {
		return st.idSlot(id)
	}
	if s, ok := st.over[p.Key()]; ok {
		return int(s)
	}
	st.over[p.Key()] = int32(len(st.pairs))
	return st.newSlot(p, -1)
}

func (st *MessageStore) newSlot(p Pair, cand int32) int {
	s := len(st.pairs)
	st.pairs, st.cand = append(st.pairs, p), append(st.cand, cand)
	st.dsu.Grow(s + 1)
	st.fresh = false
	return s
}

// union merges the messages holding slots a and b. The memoized
// components survive merges that change nothing — the common case once
// the message set has converged.
func (st *MessageStore) union(a, b int) {
	if st.dsu.Union(a, b) {
		st.fresh = false
	}
}

// AddIDs inserts one maximal message given as candidate ids of the
// store's table and merges it with any overlapping messages already in
// the store.
func (st *MessageStore) AddIDs(msg []int32) {
	for _, id := range msg {
		st.union(st.idSlot(msg[0]), st.idSlot(id))
	}
}

// Add is AddIDs for a message given as pairs.
func (st *MessageStore) Add(msg []Pair) {
	for _, p := range msg {
		st.union(st.pairSlot(msg[0]), st.pairSlot(p))
	}
}

// components returns the current disjoint maximal messages — the
// connected components of the store — as a CSR of slots, laid out by one
// counting pass: components in the order of their first-inserted slot,
// each ascending. The result is memoized until the next Add that changes
// the store — the promotion fixpoint rescans it many times between
// mutations — and is read-only.
func (st *MessageStore) components() *MessageIDs {
	if st.fresh {
		return &st.comps
	}
	n, k := len(st.pairs), int32(0)
	st.comp = slices.Grow(st.comp[:0], n)[:n]
	clear(st.comp)
	for s := range n {
		if r := st.dsu.Find(s); st.comp[r] == 0 {
			k++
			st.comp[r] = k
		}
	}
	off, slots := flat.Bucket(int(k), func(yield func(int32, int32)) {
		for s := range n {
			yield(st.comp[st.dsu.Find(s)]-1, int32(s))
		}
	})
	st.comps, st.fresh = MessageIDs{IDs: slots, Ends: off[1:]}, true
	return &st.comps
}

// Messages returns the current disjoint maximal messages in deterministic
// order, as fresh slices over one backing array.
func (st *MessageStore) Messages() [][]Pair {
	c := st.components()
	if c.Len() == 0 {
		return nil
	}
	flat := make([]Pair, len(c.IDs))
	for x, s := range c.IDs {
		flat[x] = st.pairs[s]
	}
	out := make([][]Pair, c.Len())
	for i := range out {
		out[i] = flat[c.start(i):c.Ends[i]:c.Ends[i]]
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
// Singleton components are dropped, a MaximalMessenger's too: {p}
// promotes exactly when p's conditional gain turns non-negative, which
// the evidence-driven re-evaluation of p's neighborhood derives anyway
// (monotonicity).
//
// base must be E(C, M+) — the unconditioned output — so that already-
// matched pairs are excluded from probing. The number of matcher calls is
// returned for accounting.
func ComputeMaximal(m Matcher, entities []EntityID, mPlus, neg, base PairSet) (msgs [][]Pair, calls int) {
	if mm, ok := m.(MaximalMessenger); ok {
		msgs, calls = mm.MaximalMessages(entities, mPlus, neg, base)
		return slices.DeleteFunc(msgs, func(msg []Pair) bool { return len(msg) < 2 }), calls
	}
	var probes []Pair
	for _, p := range m.Candidates(entities) {
		if !base.Has(p) && !mPlus.Has(p) && !neg.Has(p) {
			probes = append(probes, p)
		}
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
		if len(byRoot[r]) >= 2 {
			msgs = append(msgs, byRoot[r])
		}
	}
	return msgs, calls
}
