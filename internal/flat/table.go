// Package flat lays relations out in flat arrays instead of Go maps and
// per-key slices. Table is the open-addressed hash table the blocking stage
// keeps its pair relations in: the name table's scored class pairs (bib),
// the aligned context of each driving pair and the distinct candidate pairs
// (canopy). Its keys are nonzero uint64 words, typically a packed pair
// (Pair). A Go map keyed by the same words lost the aligned-context memo its
// whole gain when it was tried: two flat arrays probe and grow for less.
// Bucket groups values by a dense key in one counting pass (CSR).
package flat

import (
	"iter"
	"slices"
)

// Table maps nonzero uint64 keys to values of type V by linear probing over
// a power-of-two array of slots, doubled once three quarters full. A key may
// carry payload in the low bits New names: Find ignores those bits and
// Insert stores them with the key, so a table whose values fit there needs
// no value array — a Table[struct{}] costs 8 bytes a slot.
type Table[V any] struct {
	keys    []uint64 // 0 marks an empty slot
	vals    []V      // vals[i] belongs to keys[i]
	n       int      // occupied slots
	shift   uint     // 64 - log2(len(keys)): a hash's top bits index slots
	payload uint64   // the low bits of a stored word that are not key
}

const minShift = 6 // a table has at least 1<<6 slots

// New returns a table that holds hint keys without growing; payload masks
// the low bits of a stored word that Find ignores.
func New[V any](hint int, payload uint64) *Table[V] {
	log := uint(minShift)
	for 3<<log <= 4*hint {
		log++
	}
	t := &Table[V]{payload: payload}
	t.alloc(log)
	return t
}

func (t *Table[V]) alloc(log uint) {
	t.keys, t.vals, t.shift = make([]uint64, 1<<log), make([]V, 1<<log), 64-log
}

// Find returns the slot holding key and true, or the empty slot Insert must
// fill for it and false. key must be nonzero, with its payload bits clear.
func (t *Table[V]) Find(key uint64) (int, bool) {
	mask := len(t.keys) - 1
	// Fibonacci hashing: keys that differ in their low and middle bits, as
	// packed pairs of neighboring ids do, spread over the top ones.
	for i := int(key * 0x9E3779B97F4A7C15 >> t.shift); ; i = (i + 1) & mask {
		switch e := t.keys[i]; {
		case e == 0:
			return i, false
		case e&^t.payload == key:
			return i, true
		}
	}
}

// Word returns the key stored in slot i, payload included.
func (t *Table[V]) Word(i int) uint64 { return t.keys[i] }

// Value returns the value stored in slot i.
func (t *Table[V]) Value(i int) V { return t.vals[i] }

// Insert stores word — a key and its payload — with value v in the empty
// slot i that Find returned for the key. It may double the table, after
// which no slot index from before is valid: find the key again.
func (t *Table[V]) Insert(i int, word uint64, v V) {
	t.keys[i], t.vals[i] = word, v
	t.n++
	if t.n*4 < len(t.keys)*3 {
		return
	}
	keys, vals := t.keys, t.vals
	t.alloc(65 - t.shift)
	for j, e := range keys {
		if e != 0 {
			k, _ := t.Find(e &^ t.payload)
			t.keys[k], t.vals[k] = e, vals[j]
		}
	}
}

// Len returns the number of keys stored.
func (t *Table[V]) Len() int { return t.n }

// Clone returns a copy of the table that shares no storage with it.
func (t *Table[V]) Clone() *Table[V] {
	c := *t
	c.keys, c.vals = slices.Clone(t.keys), slices.Clone(t.vals)
	return &c
}

// All yields every stored word, payload included, with its value, in slot
// order — an order that depends on the table's history, not only on its
// contents.
func (t *Table[V]) All() iter.Seq2[uint64, V] {
	return func(yield func(uint64, V) bool) {
		for i, e := range t.keys {
			if e != 0 && !yield(e, t.vals[i]) {
				return
			}
		}
	}
}

// Pair packs the unordered pair {x, y} of distinct non-negative int32 ids
// into a key: the smaller id above bit 33, the larger above bit 2, leaving
// the two low bits clear for payload. It is never 0, since the larger id is
// at least 1, and packed keys order as the pairs do, by smaller id and then
// larger.
func Pair(x, y int32) uint64 {
	if y < x {
		x, y = y, x
	}
	return uint64(x)<<33 | uint64(y)<<2
}

// Bucket lays out the values each yields by key in one counting pass: those
// of key k in [0, n), in the order yielded, are vals[off[k]:off[k+1]]. each
// is called twice and must yield the same both times.
func Bucket[V any](n int, each func(yield func(k int32, v V))) (off []int32, vals []V) {
	off = make([]int32, n+1)
	each(func(k int32, _ V) { off[k+1]++ })
	for k := range n {
		off[k+1] += off[k]
	}
	vals = make([]V, off[n])
	at := slices.Clone(off[:n])
	each(func(k int32, v V) {
		vals[at[k]] = v
		at[k]++
	})
	return off, vals
}
