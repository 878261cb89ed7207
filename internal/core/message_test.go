package core

import (
	"slices"
	"testing"
)

func TestMessageStoreMergesOverlaps(t *testing.T) {
	st := newMessageStore(nil)
	p1, p2, p3, p4 := MakePair(0, 1), MakePair(2, 3), MakePair(4, 5), MakePair(6, 7)
	st.Add([]Pair{p1, p2})
	st.Add([]Pair{p3})
	if got := st.Messages(); len(got) != 2 {
		t.Fatalf("messages = %v, want 2 groups", got)
	}
	// Overlapping message merges the first group with a new pair.
	st.Add([]Pair{p2, p4})
	msgs := st.Messages()
	if len(msgs) != 2 {
		t.Fatalf("after merge, messages = %v, want 2 groups", msgs)
	}
	sizes := map[int]int{}
	for _, m := range msgs {
		sizes[len(m)]++
	}
	if sizes[3] != 1 || sizes[1] != 1 {
		t.Fatalf("group sizes = %v, want one 3-group and one 1-group", sizes)
	}
	if st.Size() != 4 {
		t.Errorf("Size = %d, want 4", st.Size())
	}
}

func TestMessageStoreEmptyMessage(t *testing.T) {
	st := newMessageStore(nil)
	st.Add(nil)
	if len(st.Messages()) != 0 {
		t.Error("empty message must be ignored")
	}
}

func TestMessageStoreIdempotentAdd(t *testing.T) {
	st := newMessageStore(nil)
	p1, p2 := MakePair(0, 1), MakePair(2, 3)
	st.Add([]Pair{p1, p2})
	st.Add([]Pair{p1, p2})
	if got := st.Messages(); len(got) != 1 || len(got[0]) != 2 {
		t.Fatalf("messages = %v", got)
	}
}

// chainMatcher is a minimal deterministic matcher for exercising
// ComputeMaximal: candidates form a chain p0..p_{n-1}; matching any pair
// entails matching the whole chain (all-or-nothing), but with no evidence
// nothing is matched.
type chainMatcher struct {
	chain []Pair
}

func (c chainMatcher) Candidates(entities []EntityID) []Pair { return c.chain }

func (c chainMatcher) Match(entities []EntityID, pos, neg PairSet) PairSet {
	out := NewPairSet()
	hit := false
	for _, p := range c.chain {
		if pos.Has(p) {
			hit = true
		}
	}
	if hit {
		for _, p := range c.chain {
			if !neg.Has(p) {
				out.Add(p)
			}
		}
	}
	return out
}

func TestComputeMaximalChain(t *testing.T) {
	chain := []Pair{MakePair(0, 1), MakePair(2, 3), MakePair(4, 5)}
	m := chainMatcher{chain: chain}
	base := m.Match([]EntityID{0, 1, 2, 3, 4, 5}, nil, nil)
	if base.Len() != 0 {
		t.Fatalf("base = %v, want empty", base.Sorted())
	}
	msgs, calls := ComputeMaximal(m, []EntityID{0, 1, 2, 3, 4, 5}, NewPairSet(), nil, base)
	if calls != len(chain) {
		t.Errorf("calls = %d, want %d", calls, len(chain))
	}
	if len(msgs) != 1 || len(msgs[0]) != 3 {
		t.Fatalf("messages = %v, want one 3-element message", msgs)
	}
}

func TestComputeMaximalSkipsMatched(t *testing.T) {
	chain := []Pair{MakePair(0, 1), MakePair(2, 3)}
	m := chainMatcher{chain: chain}
	// Pretend both pairs are already matched: nothing to probe.
	base := NewPairSet(chain...)
	msgs, calls := ComputeMaximal(m, []EntityID{0, 1, 2, 3}, NewPairSet(), nil, base)
	if calls != 0 || len(msgs) != 0 {
		t.Fatalf("msgs=%v calls=%d, want none", msgs, calls)
	}
}

// independentMatcher matches nothing and entails nothing: every candidate
// is its own singleton component, which ComputeMaximal drops.
type independentMatcher struct{ cands []Pair }

func (c independentMatcher) Candidates(entities []EntityID) []Pair { return c.cands }
func (c independentMatcher) Match(entities []EntityID, pos, neg PairSet) PairSet {
	out := NewPairSet()
	for _, p := range c.cands {
		if pos.Has(p) {
			out.Add(p)
		}
	}
	return out
}

func TestComputeMaximalSingletons(t *testing.T) {
	cands := []Pair{MakePair(0, 1), MakePair(2, 3), MakePair(4, 5)}
	m := independentMatcher{cands: cands}
	msgs, calls := ComputeMaximal(m, []EntityID{0, 1, 2, 3, 4, 5}, NewPairSet(), nil, NewPairSet())
	if len(msgs) != 0 || calls != 3 {
		t.Fatalf("messages = %v after %d probes, want none after 3 (singletons are dropped)", msgs, calls)
	}
}

// asymmetricMatcher entails q from p but not p from q: no edge (the
// definition requires mutual entailment).
type asymmetricMatcher struct{ p, q Pair }

func (c asymmetricMatcher) Candidates(entities []EntityID) []Pair { return []Pair{c.p, c.q} }
func (c asymmetricMatcher) Match(entities []EntityID, pos, neg PairSet) PairSet {
	out := NewPairSet()
	if pos.Has(c.p) {
		out.Add(c.p)
		out.Add(c.q)
	}
	if pos.Has(c.q) {
		out.Add(c.q)
	}
	return out
}

func TestComputeMaximalRequiresMutualEntailment(t *testing.T) {
	m := asymmetricMatcher{p: MakePair(0, 1), q: MakePair(2, 3)}
	msgs, _ := ComputeMaximal(m, []EntityID{0, 1, 2, 3}, NewPairSet(), nil, NewPairSet())
	if len(msgs) != 0 {
		t.Fatalf("messages = %v, want none: two singletons (entailment not mutual)", msgs)
	}
}

// TestProposition3 verifies the two claims of Proposition 3 on the
// definitional level, using the chain matcher whose full-run output under
// any seed evidence is all-or-nothing:
// (i) subsets of maximal messages are maximal; (ii) overlapping unions.
func TestProposition3(t *testing.T) {
	chain := []Pair{MakePair(0, 1), MakePair(2, 3), MakePair(4, 5)}
	m := chainMatcher{chain: chain}
	entities := []EntityID{0, 1, 2, 3, 4, 5}
	full := m.Match(entities, nil, nil) // empty: no seed evidence

	isMaximal := func(msg []Pair) bool {
		inside, outside := 0, 0
		for _, p := range msg {
			if full.Has(p) {
				inside++
			} else {
				outside++
			}
		}
		return inside == 0 || outside == 0
	}
	whole := chain
	if !isMaximal(whole) {
		t.Fatal("whole chain must be maximal")
	}
	// (i) every subset is maximal.
	for mask := 0; mask < 1<<len(whole); mask++ {
		var sub []Pair
		for i, p := range whole {
			if mask&(1<<i) != 0 {
				sub = append(sub, p)
			}
		}
		if !isMaximal(sub) {
			t.Fatalf("subset %v not maximal", sub)
		}
	}
	// (ii) overlapping maximal messages have maximal union.
	m1 := []Pair{chain[0], chain[1]}
	m2 := []Pair{chain[1], chain[2]}
	if !isMaximal(append(append([]Pair{}, m1...), m2...)) {
		t.Fatal("union of overlapping maximal messages not maximal")
	}
}

// FuzzMessageStoreModel holds the store to a naive model: a list of pair
// sets, where an added message absorbs every set it overlaps. The script
// adds messages by candidate id and as pairs — the latter may carry pairs
// outside the table — and after every step the store's messages (members
// and order: sets by their first-inserted pair, members in insertion
// order), its size, and the candidate id each slot's promotion test reads
// must be the model's.
func FuzzMessageStoreModel(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{131, 3, 1, 200, 7, 7, 7, 90, 1, 0, 255, 254, 3, 3, 128, 64, 32, 2, 9, 9})
	f.Add([]byte{3, 5, 6, 5, 6, 130, 5, 6, 17, 34, 1, 17, 40, 129, 40, 41, 0, 3, 1})
	f.Fuzz(func(t *testing.T, script []byte) {
		const n = 12
		var table []Pair // every pair over [0, n) whose endpoints sum to no multiple of 3
		for a := EntityID(0); a < n; a++ {
			for b := a + 1; b < n; b++ {
				if (a+b)%3 != 0 {
					table = append(table, Pair{a, b})
				}
			}
		}
		tbl, err := NewCandidateTable(n, table)
		if err != nil {
			t.Fatal(err)
		}
		st := newMessageStore(tbl)
		var (
			order []Pair // the model: distinct pairs in insertion order
			index = map[Pair]int{}
			sets  []map[Pair]bool
		)
		for i := 0; i < len(script); {
			op := script[i]
			i++
			var msg []Pair
			for k := 0; k < int(op%4)+1 && i+1 < len(script); k, i = k+1, i+2 {
				a, b := EntityID(script[i]%n), EntityID(script[i+1]%n)
				if a == b {
					b = (a + 1) % n
				}
				p := MakePair(a, b)
				if _, ok := tbl.Find(p); ok || op&128 == 0 {
					msg = append(msg, p)
				}
			}
			if op&128 != 0 { // by id: only the table's pairs were kept
				ids := make([]int32, len(msg))
				for x, p := range msg {
					ids[x], _ = tbl.Find(p)
				}
				st.AddIDs(ids)
			} else {
				st.Add(msg)
			}
			merged := map[Pair]bool{}
			for _, p := range msg {
				merged[p] = true
				if _, ok := index[p]; !ok {
					index[p] = len(order)
					order = append(order, p)
				}
			}
			sets = slices.DeleteFunc(sets, func(s map[Pair]bool) bool {
				for _, p := range msg {
					if s[p] {
						for q := range s {
							merged[q] = true
						}
						return true
					}
				}
				return false
			})
			if len(merged) > 0 {
				sets = append(sets, merged)
			}

			var want [][]Pair
			for _, s := range sets {
				var group []Pair
				for p := range s {
					group = append(group, p)
				}
				slices.SortFunc(group, func(x, y Pair) int { return index[x] - index[y] })
				want = append(want, group)
			}
			slices.SortFunc(want, func(x, y []Pair) int { return index[x[0]] - index[y[0]] })
			if got := st.Messages(); !slices.EqualFunc(got, want, slices.Equal) {
				t.Fatalf("after %v: messages %v, want %v", msg, got, want)
			}
			if st.Size() != len(order) {
				t.Fatalf("Size = %d, want %d", st.Size(), len(order))
			}
			for s, p := range st.pairs {
				id, ok := tbl.Find(p)
				if !ok {
					id = -1
				}
				if p != order[s] || st.cand[s] != id {
					t.Fatalf("slot %d holds %v (candidate %d), want %v (candidate %d)", s, p, st.cand[s], order[s], id)
				}
			}
		}
	})
}
