package core

import "math/bits"

// DenseMatcher is the optional matcher extension that lets the engine
// carry evidence in the matcher's own id space instead of hashing pairs.
// A matcher that numbers its match variables 0..n-1 publishes that
// numbering once, and the engine then keeps M+ as a bitset over it (see
// Evidence), hands it to the matcher as is, and takes match sets back as
// id lists — no PairSet is built, probed, cloned or sorted on the round
// path. The extension is output-neutral: MatchIDs must decide exactly
// what Match decides, so a run through it and a run through the plain
// Matcher methods produce the same matches, messages and counters
// (TestDenseEqualsGeneric). It is optional: a matcher without it runs
// through the same driver, all of its evidence in Evidence's overflow set.
//
// What ids mean: id i is the pair CandidateTable().Pair(i). The table
// holds every match variable — every pair Candidates can ever enumerate —
// in strictly ascending packed-key order, so ascending ids are ascending
// keys and an id list needs no sort to become a wire or store batch. A
// CandidateTable is validated where it is built and immutable afterwards,
// so the engine takes the one it is handed as it is; a matcher returns
// the same table for its whole lifetime — the one its factory was given
// (MatcherContext.Table), or one it built with NewCandidateTable.
//
// The extension includes ScopePreparer, and with it the candidate-closure
// property: Candidates(E) are the table's pairs inside E, and
// MatchIDs(c, nb, …) lists only ids the table scopes to c.Sets[nb].
type DenseMatcher interface {
	Matcher
	ScopePreparer

	// CandidateTable returns the table the matcher's ids refer to; never
	// nil.
	CandidateTable() *CandidateTable

	// MatchIDs is Match in id form on neighborhood nb of cover c: by that
	// number on the prepared cover, scoped afresh on any other. pos and neg
	// are evidence over this matcher's table (either may be nil), read by
	// HasID only — a pair in their overflow is no match variable and
	// changes nothing, per the evidence contract. The result is a fresh
	// ascending id list.
	MatchIDs(c *Cover, nb int32, pos, neg *Evidence) []int32
}

// DenseProbabilistic is DenseMatcher for a Type-II matcher: the two
// operations MMP adds, in id form.
type DenseProbabilistic interface {
	DenseMatcher
	Probabilistic

	// MatchMessagesIDs is one MMP evaluation in id form: it returns
	// MatchIDs(c, nb, mPlus, neg) and appends to msgs the maximal messages
	// under that match set — what MaximalMessenger.MaximalMessages derives
	// with it as base — in candidate ids, one group per message of two or
	// more. calls counts the conditioned probes. msgs belongs to the
	// caller: a matcher neither keeps it nor reads what it held.
	MatchMessagesIDs(c *Cover, nb int32, mPlus, neg *Evidence, msgs *MessageIDs) (ids []int32, calls int)

	// ScoreSetDeltaIDs is DeltaScorer.ScoreSetDelta for add given as ids
	// that s does not hold.
	ScoreSetDeltaIDs(add []int32, s *Evidence) float64
}

// Evidence is a monotone set of pairs in the engine's dense form: one bit
// per candidate id of a DenseMatcher's table, plus an overflow PairSet
// for pairs outside the table. The engine's M+, every sharded worker's
// replica of it, and the plan's V− are Evidence values.
//
// Under a dense matcher the overflow holds only what a warm start or a
// checkpoint trail carried in for a candidate that has since vanished:
// the engine keeps carrying such a pair and the matcher never reads it.
// Under a matcher without the extension the table is empty, so the
// overflow is the whole set — and is handed to Match as it is.
//
// Additions are logged in insertion order, which is how a round's
// evidence delta is read off without diffing sets (Mark, Since). A nil
// *Evidence is a valid empty set for reading. Concurrent readers are
// safe while nobody adds.
type Evidence struct {
	table *CandidateTable
	bits  []uint64
	count int     // set bits
	over  PairSet // nil until a pair outside the table arrives
	log   []Pair
}

// NewEvidence returns an empty set over a candidate table (nil for a
// matcher without one).
func NewEvidence(table *CandidateTable) *Evidence {
	return &Evidence{table: table, bits: make([]uint64, (table.Len()+63)/64)}
}

// EvidenceOf returns set in dense form over table — what the PairSet
// forms of a DenseMatcher's methods hand their dense core. An empty set
// yields nil.
func EvidenceOf(table *CandidateTable, set PairSet) *Evidence {
	if len(set) == 0 {
		return nil
	}
	e := NewEvidence(table)
	for k := range set {
		if id, ok := table.Find(k.Pair()); ok {
			e.setID(id)
		} else {
			e.setOver(k)
		}
	}
	return e
}

// MatchByIDs is Matcher.Match for a DenseMatcher, by way of MatchIDs on
// the entities as a cover of one neighborhood: the evidence sets are
// translated to dense form — in full, once per call — and the id list back
// to a PairSet. It is the whole PairSet-form Match of a matcher whose
// inference runs on ids; the engine, which calls often, calls MatchIDs
// itself.
func MatchByIDs(m DenseMatcher, entities []EntityID, pos, neg PairSet) PairSet {
	table := m.CandidateTable()
	one := &Cover{Sets: [][]EntityID{entities}}
	ids := m.MatchIDs(one, 0, EvidenceOf(table, pos), EvidenceOf(table, neg))
	out := make(PairSet, len(ids))
	for _, id := range ids {
		out.Add(table.pairs[id])
	}
	return out
}

// ID returns the candidate id of key k in the evidence's table.
func (e *Evidence) ID(k PairKey) (int32, bool) {
	if e == nil {
		return 0, false
	}
	return e.table.Find(k.Pair())
}

// HasID reports whether candidate id is in the set.
func (e *Evidence) HasID(id int32) bool {
	return e != nil && e.bits[uint32(id)>>6]&(1<<(uint32(id)&63)) != 0
}

// setID sets candidate id's bit and reports whether it was clear.
func (e *Evidence) setID(id int32) bool {
	w, b := uint32(id)>>6, uint64(1)<<(uint32(id)&63)
	if e.bits[w]&b != 0 {
		return false
	}
	e.bits[w] |= b
	e.count++
	return true
}

// setOver inserts a pair outside the table and reports whether it was new.
func (e *Evidence) setOver(k PairKey) bool {
	if e.over.HasKey(k) {
		return false
	}
	if e.over == nil {
		e.over = NewPairSet()
	}
	e.over.AddKey(k)
	return true
}

// AddID inserts candidate id and reports whether it was new.
func (e *Evidence) AddID(id int32) bool {
	if !e.setID(id) {
		return false
	}
	e.log = append(e.log, e.table.pairs[id])
	return true
}

// HasKey reports membership of a packed pair, candidate or not.
func (e *Evidence) HasKey(k PairKey) bool {
	if id, ok := e.ID(k); ok {
		return e.HasID(id)
	}
	return e != nil && e.over.HasKey(k)
}

// AddKey inserts a packed pair — as its candidate bit when the table
// holds it, into the overflow otherwise — and reports whether it was new.
func (e *Evidence) AddKey(k PairKey) bool {
	if id, ok := e.table.Find(k.Pair()); ok {
		return e.AddID(id)
	}
	return e.addOver(k)
}

// AddAscending inserts a strictly increasing list of packed keys — a
// sharded worker's catch-up, as the wire carries it — resolving them
// against the table in one merge walk (CandidateTable.FindFrom) where
// AddKey would search for each.
func (e *Evidence) AddAscending(keys []uint64) {
	from := 0 // the keys ascend, so the ids do
	for _, k := range keys {
		if id, ok := e.table.FindFrom(from, PairKey(k)); ok {
			e.AddID(id)
			from = int(id) + 1
		} else {
			e.addOver(PairKey(k))
		}
	}
}

// addOver inserts a pair outside the table and reports whether it was new.
func (e *Evidence) addOver(k PairKey) bool {
	if !e.setOver(k) {
		return false
	}
	e.log = append(e.log, k.Pair())
	return true
}

// Len returns the cardinality.
func (e *Evidence) Len() int {
	if e == nil {
		return 0
	}
	return e.count + len(e.over)
}

// Overflow returns the pairs outside the candidate table: everything, for
// a matcher without one. Read-only, and live — it grows with the set.
func (e *Evidence) Overflow() PairSet {
	if e == nil {
		return nil
	}
	return e.over
}

// CountUnset returns how many of the given candidate ids are not in the
// set — a neighborhood's undecided in-scope pairs, given its scope.
func (e *Evidence) CountUnset(ids []int32) int {
	n := 0
	for _, id := range ids {
		if !e.HasID(id) {
			n++
		}
	}
	return n
}

// Mark returns the current position of the insertion log.
func (e *Evidence) Mark() int { return len(e.log) }

// Since returns the pairs added after the given mark, in insertion
// order. Read-only; the log is append-only, so the slice stays valid.
func (e *Evidence) Since(mark int) []Pair { return e.log[mark:] }

// SortedKeys returns the set's packed keys in ascending order: the
// candidate bits in id order — which is key order — merged with the
// sorted overflow.
func (e *Evidence) SortedKeys() []PairKey {
	if e.Len() == 0 {
		return nil
	}
	out := make([]PairKey, 0, e.Len())
	var over []PairKey
	if len(e.over) > 0 {
		over = e.over.SortedKeys()
	}
	for w, word := range e.bits {
		for ; word != 0; word &= word - 1 {
			k := e.table.pairs[w<<6|bits.TrailingZeros64(word)].Key()
			for len(over) > 0 && over[0] < k {
				out, over = append(out, over[0]), over[1:]
			}
			out = append(out, k)
		}
	}
	return append(out, over...)
}

// PairSet materializes the set.
func (e *Evidence) PairSet() PairSet {
	out := make(PairSet, e.Len())
	if e == nil {
		return out
	}
	for w, word := range e.bits {
		for ; word != 0; word &= word - 1 {
			out.Add(e.table.pairs[w<<6|bits.TrailingZeros64(word)])
		}
	}
	for k := range e.over {
		out.AddKey(k)
	}
	return out
}
