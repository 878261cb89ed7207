package flat

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// halves are the 32-bit halves model keys are made of: zero, neighbors at
// the bottom, and the extremes, so keys with a zero high or low half, keys
// differing in one low bit and the largest packed pairs all occur.
var halves = []uint32{0, 1, 2, 3, 4, 5, 6, 7, 8, 1 << 31, 1<<31 + 4, math.MaxUint32, math.MaxUint32 - 4, 1 << 30}

// FuzzTableModel drives a Table[int32] with two payload bits and a map side
// by side: each three bytes of input pick a key's two halves and a payload.
// The key is looked up (both must agree on presence, stored word and value)
// and, if absent, inserted through the slot Find returned — the sequence
// every caller performs — with its insertion ordinal as value, then found
// again: a slot index does not survive the growth an insert may trigger.
// The universe, 111 distinct keys once the payload bits are cleared, takes a
// new 64-slot table through two doublings.
func FuzzTableModel(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	long := make([]byte, 3*1200)
	rng.Read(long)
	f.Add(long) // fills most of the universe: every growth, many re-lookups
	f.Add([]byte{0, 1, 3, 1, 0, 0, 0, 1, 2})
	f.Add([]byte{11, 0, 1, 0, 11, 2, 11, 11, 3}) // MaxUint32 halves against zero ones
	f.Fuzz(func(t *testing.T, ops []byte) {
		const payload = 3
		tab := New[int32](0, payload)
		type entry struct {
			word uint64
			val  int32
		}
		model := map[uint64]entry{}
		for ; len(ops) >= 3; ops = ops[3:] {
			key := (uint64(halves[int(ops[0])%len(halves)])<<32 | uint64(halves[int(ops[1])%len(halves)])) &^ payload
			if key == 0 {
				continue
			}
			want, ok := model[key]
			slot, found := tab.Find(key)
			if found != ok || (found && (tab.Word(slot) != want.word || tab.Value(slot) != want.val)) {
				t.Fatalf("key %#x: table has (%v, %#x, %d), model (%v, %+v)", key, found, tab.Word(slot), tab.Value(slot), ok, want)
			}
			if ok {
				continue
			}
			want = entry{word: key | uint64(ops[2])&payload, val: int32(len(model))}
			tab.Insert(slot, want.word, want.val)
			model[key] = want
			if slot, found = tab.Find(key); !found || tab.Word(slot) != want.word || tab.Value(slot) != want.val {
				t.Fatalf("key %#x just inserted: found %v, slot holds (%#x, %d), want %+v", key, found, tab.Word(slot), tab.Value(slot), want)
			}
		}
		if tab.Len() != len(model) {
			t.Fatalf("table counts %d keys, model %d", tab.Len(), len(model))
		}
		if len(tab.keys)&(len(tab.keys)-1) != 0 || tab.n*4 >= len(tab.keys)*3 {
			t.Fatalf("%d keys in %d slots: not a power of two under three quarters full", tab.n, len(tab.keys))
		}
		seen := 0
		for word, val := range tab.All() {
			if want := model[word&^payload]; want.word != word || want.val != val {
				t.Fatalf("All yields (%#x, %d), model has %+v", word, val, want)
			}
			seen++
		}
		if seen != len(model) {
			t.Fatalf("All yields %d keys, model has %d", seen, len(model))
		}
	})
}

// TestNewHoldsHint: a table built for hint keys takes them without growing,
// and is the smallest power of two that does.
func TestNewHoldsHint(t *testing.T) {
	for hint := 0; hint <= 2000; hint++ {
		tab := New[struct{}](hint, 0)
		slots := len(tab.keys)
		for k := range hint {
			slot, _ := tab.Find(Pair(0, int32(k+1)))
			tab.Insert(slot, Pair(0, int32(k+1)), struct{}{})
		}
		if len(tab.keys) != slots {
			t.Fatalf("hint %d: grew from %d to %d slots", hint, slots, len(tab.keys))
		}
		if slots > 1<<minShift && (slots/2)*3 > 4*hint {
			t.Fatalf("hint %d: %d slots, half of them would do", hint, slots)
		}
	}
}

// TestClone: a clone holds what the table held, and inserts into either —
// through growths on both sides — never show in the other.
func TestClone(t *testing.T) {
	insert := func(tab *Table[int32], k int32) {
		slot, found := tab.Find(Pair(0, k))
		if found {
			t.Fatalf("key %d already present", k)
		}
		tab.Insert(slot, Pair(0, k)|uint64(k&3), k)
	}
	has := func(tab *Table[int32], k int32) bool {
		slot, found := tab.Find(Pair(0, k))
		if found && (tab.Word(slot) != Pair(0, k)|uint64(k&3) || tab.Value(slot) != k) {
			t.Fatalf("key %d holds (%#x, %d)", k, tab.Word(slot), tab.Value(slot))
		}
		return found
	}
	orig := New[int32](0, 3)
	for k := int32(1); k <= 40; k++ {
		insert(orig, k)
	}
	clone := orig.Clone()
	for k := int32(41); k <= 200; k++ {
		insert(orig, 2*k)
		insert(clone, 2*k+1)
	}
	if orig.Len() != 200 || clone.Len() != 200 {
		t.Fatalf("lengths %d and %d, want 200 each", orig.Len(), clone.Len())
	}
	for k := int32(1); k <= 401; k++ {
		inOrig, inClone := k <= 40 || k >= 82 && k%2 == 0, k <= 40 || k >= 83 && k%2 == 1
		if has(orig, k) != inOrig || has(clone, k) != inClone {
			t.Fatalf("key %d: in table %v, in clone %v", k, has(orig, k), has(clone, k))
		}
	}
}

// TestPairOrder: Pair is symmetric, never 0, leaves the payload bits clear,
// and orders as the pairs do, by smaller id and then larger.
func TestPairOrder(t *testing.T) {
	ids := []int32{0, 1, 2, 3, 1 << 30, math.MaxInt32 - 1, math.MaxInt32}
	for _, a := range ids {
		for _, b := range ids {
			if a == b {
				continue
			}
			k := Pair(a, b)
			if k != Pair(b, a) || k == 0 || k&3 != 0 {
				t.Fatalf("Pair(%d, %d) = %#x, Pair(%d, %d) = %#x", a, b, k, b, a, Pair(b, a))
			}
			for _, c := range ids {
				for _, d := range ids {
					if c == d {
						continue
					}
					p, q := [2]int32{min(a, b), max(a, b)}, [2]int32{min(c, d), max(c, d)}
					less := p[0] < q[0] || (p[0] == q[0] && p[1] < q[1])
					if less != (k < Pair(c, d)) {
						t.Fatalf("Pair(%d, %d) < Pair(%d, %d) is %v", a, b, c, d, !less)
					}
				}
			}
		}
	}
}

// TestBucket: each key's values come out in the order they were yielded,
// keys without values have empty ranges, and the offsets cover every value.
func TestBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 5, 300} {
		var keys []int32
		for range rng.Intn(4 * (n + 1)) {
			if n > 0 {
				keys = append(keys, int32(rng.Intn(n)))
			}
		}
		off, vals := Bucket(n, func(yield func(int32, int)) {
			for i, k := range keys {
				yield(k, i)
			}
		})
		if len(off) != n+1 || int(off[n]) != len(keys) || len(vals) != len(keys) {
			t.Fatalf("n=%d, %d values: %d offsets ending at %d, %d values out", n, len(keys), len(off), off[n], len(vals))
		}
		for k := range n {
			var want []int
			for i, key := range keys {
				if key == int32(k) {
					want = append(want, i)
				}
			}
			if got := vals[off[k]:off[k+1]]; !slices.Equal(got, want) {
				t.Fatalf("n=%d: key %d holds %v, want %v", n, k, got, want)
			}
		}
	}
}
