package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// ErrCandidateRange marks a candidate pair with an endpoint that is not
// an entity of the dataset — which includes whatever a packed key with
// its sign bit set unpacks to.
var ErrCandidateRange = errors.New("core: candidate pair outside the dataset")

// CandidateTable is the ground candidate relation of one dataset: the
// match variables blocking produced, numbered once. Id i is Pairs()[i];
// the pairs are in strictly ascending packed-key order — (A, B) order —
// so ascending ids are ascending keys, an id list needs no sort to become
// a wire or store batch, and the candidates with first endpoint e are the
// id range Range(e), ascending in B.
//
// A table is validated where it is built and immutable afterwards, so
// holding one is the proof of that order: the engine (RoundPlan,
// Evidence), both built-in matchers and a compiled rules program share
// one by reference and none of them re-checks it. Beside the pairs it
// owns what follows from the pairs alone: the pair → id search, the
// scoped ids of every neighborhood of the last prepared cover, and the
// coauthor support join. Safe for concurrent use. A nil table is the
// empty table of a matcher without the dense extension.
type CandidateTable struct {
	n     int // entities
	pairs []Pair
	first []int32 // entity e -> first id with A == e; len n+1

	scopes atomic.Pointer[Scopes]
	marks  sync.Pool // *entityMarks, all clear between uses

	joinMu sync.Mutex
	join   *Supports
}

// entityMarks is the membership scratch of one scoping pass: 1 marks an
// entity of the slice, 2 one whose candidate range was walked.
type entityMarks struct{ in []uint8 }

// TableOf builds the table of the pairs of cands — candidates in any
// form, read through pair — over the entities [0, n), and returns with it
// the candidates in table order: cands itself when it already was in
// ascending pair order, as blocking emits it, a sorted copy otherwise (the
// caller's slice is left alone). Position i of the returned slice is
// candidate id i, which is how a matcher lines its own columns (levels,
// seeds) up with the table.
//
// This is the one validation of a candidate set: a pair that is not
// normalized, has an endpoint outside [0, n) (ErrCandidateRange) or
// occurs twice is refused.
func TableOf[C any](n int, cands []C, pair func(C) Pair) (*CandidateTable, []C, error) {
	// Packed-key order is (A, B) order on valid pairs, and puts equal
	// pairs side by side whatever else it is handed.
	byKey := func(a, b C) int { return cmp.Compare(pair(a).Key(), pair(b).Key()) }
	if !slices.IsSortedFunc(cands, byKey) {
		cands = slices.Clone(cands)
		slices.SortFunc(cands, byKey)
	}
	t := &CandidateTable{n: n, pairs: make([]Pair, len(cands)), first: make([]int32, n+1)}
	for i, c := range cands {
		p := pair(c)
		switch {
		case !p.Valid():
			return nil, nil, fmt.Errorf("core: invalid candidate pair %v", p)
		case !p.ValidOver(n):
			return nil, nil, fmt.Errorf("%w: %v, references are 0..%d", ErrCandidateRange, p, n-1)
		case i > 0 && p == t.pairs[i-1]:
			return nil, nil, fmt.Errorf("core: duplicate candidate pair %v", p)
		}
		t.pairs[i] = p
		t.first[p.A+1]++
	}
	for e := 0; e < n; e++ {
		t.first[e+1] += t.first[e]
	}
	t.marks.New = func() any { return &entityMarks{in: make([]uint8, n)} }
	return t, cands, nil
}

// NewCandidateTable is TableOf for bare pairs.
func NewCandidateTable(n int, pairs []Pair) (*CandidateTable, error) {
	t, _, err := TableOf(n, pairs, func(p Pair) Pair { return p })
	return t, err
}

// Len returns the number of candidates.
func (t *CandidateTable) Len() int {
	if t == nil {
		return 0
	}
	return len(t.pairs)
}

// Pairs returns the id → pair table. Read-only.
func (t *CandidateTable) Pairs() []Pair {
	if t == nil {
		return nil
	}
	return t.pairs
}

// Pair returns candidate id's pair.
func (t *CandidateTable) Pair(id int32) Pair { return t.pairs[id] }

// Range returns the ids lo..hi-1 of the candidates whose first endpoint
// is e, ascending in the second.
func (t *CandidateTable) Range(e EntityID) (lo, hi int32) { return t.first[e], t.first[e+1] }

// Find returns the id of pair p: a binary search of the id range of its
// first endpoint. A pair with an endpoint outside the dataset — whatever
// an unvalidated key unpacks to — is no candidate and never indexes.
func (t *CandidateTable) Find(p Pair) (int32, bool) {
	if t == nil || p.A < 0 || int(p.A) >= t.n {
		return 0, false
	}
	return t.search(int(t.first[p.A]), int(t.first[p.A+1]), p.Key())
}

// FindFrom returns the id of key k, looking at ids from and above only: a
// gallop out from there brackets the key, so resolving an ascending key
// list — each search starting where the last one ended — is a merge walk.
// The key is only ever compared, never used as an index.
func (t *CandidateTable) FindFrom(from int, k PairKey) (int32, bool) {
	if t == nil {
		return 0, false
	}
	lo, hi := from, from+1
	for hi < len(t.pairs) && t.pairs[hi].Key() < k {
		lo, hi = hi+1, hi+2*(hi-from+1)
	}
	return t.search(lo, min(hi, len(t.pairs)), k)
}

// search is the one pair → id search: the first id in [lo, hi) whose key
// is not below k, which is k's id when it holds k. Every id below lo must
// be below k and the id hi, when there is one, not below it.
func (t *CandidateTable) search(lo, hi int, k PairKey) (int32, bool) {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.pairs[mid].Key() < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(t.pairs) && t.pairs[lo].Key() == k {
		return int32(lo), true
	}
	return 0, false
}

// Scopes is one cover as a candidate table sees it: for every
// neighborhood, by its number in the cover, the ids of the candidates with
// both endpoints inside, ascending. CandidateTable.PrepareCover builds it;
// a matcher keeps its own per-neighborhood state in a slice indexed the
// same way.
type Scopes struct {
	cover *Cover
	ids   [][]int32
}

// Cover returns the cover the scoping is of.
func (s *Scopes) Cover() *Cover { return s.cover }

// IDs returns the scoped ids of neighborhood nb. Read-only.
func (s *Scopes) IDs(nb int32) []int32 { return s.ids[nb] }

// PrepareCover scopes every neighborhood of c — once per cover, however
// many matchers over this table are handed it — and returns the scoping.
// The table caches the last cover's; a matcher that keeps per-neighborhood
// state of its own holds on to the returned value, which stays valid
// after another cover replaces it here. Safe to call concurrently with
// every other method.
func (t *CandidateTable) PrepareCover(c *Cover) *Scopes {
	if s := t.scopes.Load(); s != nil && s.cover == c {
		return s
	}
	// Each neighborhood is scoped into the reused buffer and copied out at
	// exact size: appending into fresh lists pays a regrowth series each.
	s := &Scopes{cover: c, ids: make([][]int32, c.Len())}
	var buf []int32
	for nb, set := range c.Sets {
		buf = t.AppendScopeIDs(buf[:0], set)
		s.ids[nb] = slices.Clone(buf)
	}
	t.scopes.Store(s)
	return s
}

// AppendScopeIDs scopes an arbitrary entity slice — in any order, an
// entity listed any number of times; FULL's whole set, a test's subset —
// appending its candidate ids, ascending and each once, to dst.
func (t *CandidateTable) AppendScopeIDs(dst []int32, entities []EntityID) []int32 {
	mk := t.marks.Get().(*entityMarks)
	defer t.marks.Put(mk)
	in := mk.in
	for _, e := range entities {
		in[e] = 1
	}
	lo := len(dst)
	for _, e := range entities {
		if in[e] == 2 {
			continue
		}
		in[e] = 2
		for id := t.first[e]; id < t.first[e+1]; id++ {
			if in[t.pairs[id].B] != 0 {
				dst = append(dst, id)
			}
		}
	}
	for _, e := range entities {
		in[e] = 0
	}
	slices.Sort(dst[lo:])
	return dst
}

// Candidates returns the candidate pairs with both endpoints in the
// entity set, in (A, B) order, materialized on each call.
func (t *CandidateTable) Candidates(entities []EntityID) []Pair {
	ids := t.AppendScopeIDs(nil, entities)
	out := make([]Pair, len(ids))
	for i, id := range ids {
		out[i] = t.pairs[id]
	}
	return out
}

// Support is one supporting candidate of a candidate (a, b): the pair
// {c1, c2} with c1 a coauthor of a and c2 of b, and the number of role
// assignments it arises from — 2 when each endpoint is a coauthor of both
// a and b, 1 otherwise.
type Support struct {
	ID int32
	N  int32
}

// Supports is the coauthor support join of a table: the static side of
// similar ⋈ coauthor ⋈ equals, which both built-in matchers read. For
// candidate (a, b) with coauthor lists N(a), N(b):
//
//   - Shared is |N(a) ∩ N(b)|: a coauthor c of both is the pair (c, c),
//     matched by reflexivity under any evidence;
//   - Of lists the distinct candidates {c1, c2}, c1 ∈ N(a), c2 ∈ N(b),
//     c1 ≠ c2, ascending by id with their multiplicity, the candidate
//     itself excluded (a and b can be coauthors; a pair does not support
//     its own derivation).
//
// The MLN weighs every grounding (two role assignments per combination,
// so 2·N and 2·Shared); the rules count distinct supports (ID alone).
type Supports struct {
	co     *graph.Graph
	shared []int32
	off    []int32
	sup    []Support
}

// Shared returns the number of coauthors candidate id's endpoints share.
func (s *Supports) Shared(id int32) int32 { return s.shared[id] }

// Of returns candidate id's supporting candidates. Read-only.
func (s *Supports) Of(id int32) []Support { return s.sup[s.off[id]:s.off[id+1]] }

// Supports returns the support join of the table over a coauthor graph on
// the same entities, computed on first use and kept for the table's
// lifetime (a different graph replaces it).
func (t *CandidateTable) Supports(co *graph.Graph) *Supports {
	t.joinMu.Lock()
	defer t.joinMu.Unlock()
	if t.join == nil || t.join.co != co {
		t.join = t.joinSupports(co)
	}
	return t.join
}

// joinSupports walks each candidate's N(a) × N(b) grid, looking every
// combination up in the id range of its lower endpoint; equal ids end up
// side by side once sorted, so a run's length is the multiplicity.
// (Measured against a stamp join over the coauthors' candidate ranges,
// which only wins when most candidates can be skipped: 1.5 against 1.8 ms
// at HEPTH-like 0.5, 24 against 36 ms at HEPTH-like 4.)
func (t *CandidateTable) joinSupports(co *graph.Graph) *Supports {
	s := &Supports{
		co:     co,
		shared: make([]int32, len(t.pairs)),
		off:    make([]int32, len(t.pairs)+1),
		sup:    make([]Support, 0, len(t.pairs)),
	}
	var found []int32
	for id, p := range t.pairs {
		s.off[id] = int32(len(s.sup))
		found = found[:0]
		for _, c1 := range co.Neighbors(p.A) {
			for _, c2 := range co.Neighbors(p.B) {
				if c1 == c2 {
					s.shared[id]++
				} else if sid, ok := t.Find(MakePair(c1, c2)); ok && int(sid) != id {
					found = append(found, sid)
				}
			}
		}
		slices.Sort(found)
		for i := 0; i < len(found); {
			run := i + 1
			for run < len(found) && found[run] == found[i] {
				run++
			}
			s.sup = append(s.sup, Support{ID: found[i], N: int32(run - i)})
			i = run
		}
	}
	s.off[len(t.pairs)] = int32(len(s.sup))
	return s
}
