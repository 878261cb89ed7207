package flat

import "hash/maphash"

// seed keys the hashes of every Strings table: where an id sits in a table
// depends on it, which id a string has does not.
var seed = maphash.MakeSeed()

// Strings numbers distinct strings: a Table from a 64-bit hash of each string
// to its id. It keeps no string — the caller keeps each id's string and
// hands ID a way to read it back — so a slot costs 12 bytes, and a table
// sized by New's hint from a count of the strings it may hold never grows.
// Strings whose hashes collide take the next keys of their own key
// sequences, so the ids of distinct strings never mix.
type Strings struct{ t *Table[int32] }

// NewStrings returns a table that numbers hint strings without growing.
func NewStrings(hint int) Strings { return Strings{New[int32](hint, 0)} }

// ID returns the id of s and true, or, when s has none, gives s the id next
// and returns it and false. str(id) must return the string of each id the
// table holds.
func (x Strings) ID(s string, next int32, str func(int32) string) (int32, bool) {
	return x.id(maphash.String(seed, s)|1, s, next, str)
}

// id is ID with s's first key given.
func (x Strings) id(key uint64, s string, next int32, str func(int32) string) (int32, bool) {
	for ; ; key = key*0xBF58476D1CE4E5B9 | 1 { // odd, so never 0
		slot, ok := x.t.Find(key)
		if !ok {
			x.t.Insert(slot, key, next)
			return next, false
		}
		if id := x.t.Value(slot); str(id) == s {
			return id, true
		}
	}
}

// Len returns the number of strings numbered.
func (x Strings) Len() int { return x.t.Len() }

// Clone returns a copy of the table that shares no storage with it.
func (x Strings) Clone() Strings { return Strings{x.t.Clone()} }
