// Package core implements the paper's scaling framework: the black-box
// matcher abstractions (§3), covers over entity sets (§4), and the
// message-passing schemes NO-MP, SMP (Algorithm 1) and MMP (Algorithms 2
// and 3) together with the UB oracle of §6.1.
//
// The framework is generic over the entity domain: entities are dense
// int32 ids, and matchers are black boxes satisfying the Matcher (Type-I)
// or Probabilistic (Type-II) interfaces.
package core

import (
	"fmt"
	"iter"
	"slices"
)

// EntityID identifies an entity. Ids are dense in [0, n).
type EntityID = int32

// Pair is an unordered pair of entities, normalized so A < B. Construct
// with MakePair to maintain the invariant.
type Pair struct {
	A, B EntityID
}

// MakePair returns the normalized pair {a, b}.
func MakePair(a, b EntityID) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{a, b}
}

// Valid reports whether the pair is normalized and non-reflexive.
func (p Pair) Valid() bool { return p.A < p.B }

// ValidOver reports whether the pair is valid over the entity ids [0, n).
// It is the check for a pair that arrives from outside — a warm-start
// seed, a stored snapshot: Valid alone accepts a negative A, which a
// packed key with its top bit set unpacks to.
func (p Pair) ValidOver(n int) bool { return 0 <= p.A && p.A < p.B && int(p.B) < n }

func (p Pair) String() string { return fmt.Sprintf("(%d,%d)", p.A, p.B) }

// PairKey packs a normalized pair into one machine word: A in the high 32
// bits, B in the low 32. Because ids are dense non-negative int32s and
// pairs are normalized (A < B), the natural uint64 ordering of keys equals
// the (A, then B) lexicographic pair ordering — sorting keys IS sorting
// pairs, with no comparator.
type PairKey uint64

// Key packs the pair.
func (p Pair) Key() PairKey {
	return PairKey(uint64(uint32(p.A))<<32 | uint64(uint32(p.B)))
}

// Pair unpacks the key.
func (k PairKey) Pair() Pair {
	return Pair{A: EntityID(k >> 32), B: EntityID(uint32(k))}
}

// PairSet is a set of normalized pairs, represented on packed uint64 keys
// so membership tests hash one word instead of a struct. The nil map is a
// valid empty set for reading; use NewPairSet or Add (on a non-nil set)
// to build one. Iterate pairs with All (or Sorted for deterministic
// order); ranging over the map directly yields PairKeys.
type PairSet map[PairKey]struct{}

// NewPairSet returns an empty set, optionally seeded with pairs.
func NewPairSet(pairs ...Pair) PairSet {
	s := make(PairSet, len(pairs))
	for _, p := range pairs {
		s.Add(p)
	}
	return s
}

// Add inserts p (normalizing is the caller's job via MakePair).
func (s PairSet) Add(p Pair) { s[p.Key()] = struct{}{} }

// AddKey inserts an already-packed pair.
func (s PairSet) AddKey(k PairKey) { s[k] = struct{}{} }

// Has reports membership. Safe on a nil set.
func (s PairSet) Has(p Pair) bool {
	_, ok := s[p.Key()]
	return ok
}

// HasKey reports membership of a packed pair. Safe on a nil set.
func (s PairSet) HasKey(k PairKey) bool {
	_, ok := s[k]
	return ok
}

// Len returns the cardinality. Safe on a nil set.
func (s PairSet) Len() int { return len(s) }

// All iterates the pairs in unspecified order (map iteration); use Sorted
// when determinism matters.
func (s PairSet) All() iter.Seq[Pair] {
	return func(yield func(Pair) bool) {
		for k := range s {
			if !yield(k.Pair()) {
				return
			}
		}
	}
}

// AddAll inserts every pair of t into s and returns the number of pairs
// that were actually new.
func (s PairSet) AddAll(t PairSet) int {
	added := 0
	for k := range t {
		if _, ok := s[k]; !ok {
			s[k] = struct{}{}
			added++
		}
	}
	return added
}

// Clone returns an independent copy.
func (s PairSet) Clone() PairSet {
	out := make(PairSet, len(s))
	for k := range s {
		out[k] = struct{}{}
	}
	return out
}

// Union returns a new set s ∪ t.
func (s PairSet) Union(t PairSet) PairSet {
	out := s.Clone()
	out.AddAll(t)
	return out
}

// Minus returns a new set s \ t.
func (s PairSet) Minus(t PairSet) PairSet {
	out := NewPairSet()
	for k := range s {
		if _, ok := t[k]; !ok {
			out[k] = struct{}{}
		}
	}
	return out
}

// Intersect returns a new set s ∩ t.
func (s PairSet) Intersect(t PairSet) PairSet {
	if t.Len() < s.Len() {
		s, t = t, s
	}
	out := NewPairSet()
	for k := range s {
		if _, ok := t[k]; ok {
			out[k] = struct{}{}
		}
	}
	return out
}

// Subset reports whether s ⊆ t.
func (s PairSet) Subset(t PairSet) bool {
	for k := range s {
		if _, ok := t[k]; !ok {
			return false
		}
	}
	return true
}

// Equal reports set equality.
func (s PairSet) Equal(t PairSet) bool {
	return s.Len() == t.Len() && s.Subset(t)
}

// SortedKeys returns the packed keys in ascending order — the stable
// iteration the schedulers use for reproducible evidence propagation.
func (s PairSet) SortedKeys() []PairKey {
	out := make([]PairKey, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// Sorted returns the pairs in deterministic (A, then B) order.
func (s PairSet) Sorted() []Pair {
	keys := s.SortedKeys()
	out := make([]Pair, len(keys))
	for i, k := range keys {
		out[i] = k.Pair()
	}
	return out
}

// WithPair returns a new set s ∪ {p}; s is unchanged.
func (s PairSet) WithPair(p Pair) PairSet {
	out := s.Clone()
	out.Add(p)
	return out
}
