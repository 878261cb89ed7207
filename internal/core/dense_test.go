package core

import (
	"slices"
	"testing"
)

// FuzzEvidenceModel holds Evidence to a plain PairSet model under a
// byte-scripted sequence of operations: adds by id and by key (table and
// overflow keys), membership, the ascending iteration, the insertion log
// since a mark.
func FuzzEvidenceModel(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{200, 3, 1, 200, 7, 7, 7, 90, 1, 0, 255, 254, 3, 3, 128, 64, 32})
	f.Add([]byte{5, 5, 5, 5, 250, 250, 17, 34, 51, 68, 85, 102, 119, 136, 153, 170, 187, 204, 221, 238})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 2 {
			return
		}
		// Entities 0..15. The table is the pairs the first bytes select, in
		// key order; every other pair over the entities is an overflow key.
		var table []Pair
		for a := EntityID(0); a < 16; a++ {
			for b := a + 1; b < 16; b++ {
				if x := script[int(a*16+b)%len(script)]; (x+uint8(a)+uint8(b))%3 != 0 {
					table = append(table, Pair{a, b})
				}
			}
		}
		tbl, err := NewCandidateTable(16, table)
		if err != nil {
			t.Fatal(err)
		}
		pairAt := func(x, y byte) Pair {
			a, b := EntityID(x%16), EntityID(y%16)
			if a == b {
				b = (a + 1) % 16
			}
			return MakePair(a, b)
		}

		ev, model := NewEvidence(tbl), NewPairSet()
		var log []Pair
		mark, markLen := ev.Mark(), 0
		for i := 0; i+2 < len(script); i += 3 {
			op, x, y := script[i], script[i+1], script[i+2]
			switch op % 5 {
			case 0, 1: // add by key
				p := pairAt(x, y)
				if fresh := ev.AddKey(p.Key()); fresh != !model.Has(p) {
					t.Fatalf("AddKey(%v) reported new=%v, model holds it: %v", p, fresh, model.Has(p))
				}
				if !model.Has(p) {
					log = append(log, p)
				}
				model.Add(p)
			case 2: // add by id
				if len(table) == 0 {
					continue
				}
				id := int32(int(x)<<8|int(y)) % int32(len(table))
				if fresh := ev.AddID(id); fresh != !model.Has(table[id]) {
					t.Fatalf("AddID(%d) reported new=%v", id, fresh)
				}
				if !model.Has(table[id]) {
					log = append(log, table[id])
				}
				model.Add(table[id])
			case 3: // membership, both ways in
				p := pairAt(x, y)
				if ev.HasKey(p.Key()) != model.Has(p) {
					t.Fatalf("HasKey(%v) = %v, model says %v", p, ev.HasKey(p.Key()), model.Has(p))
				}
				id, ok := ev.ID(p.Key())
				if want := slices.Index(table, p); ok != (want >= 0) || (ok && int(id) != want) {
					t.Fatalf("ID(%v) = %d, %v; the table has it at %d", p, id, ok, want)
				}
				if ok && ev.HasID(id) != model.Has(p) {
					t.Fatalf("HasID(%d) disagrees with the model", id)
				}
			case 4: // set a mark
				mark, markLen = ev.Mark(), len(log)
			}
		}

		if ev.Len() != model.Len() {
			t.Fatalf("Len = %d, model %d", ev.Len(), model.Len())
		}
		if got, want := ev.SortedKeys(), model.SortedKeys(); !slices.Equal(got, want) {
			t.Fatalf("SortedKeys = %v, model %v", got, want)
		}
		if !ev.PairSet().Equal(model) {
			t.Fatal("PairSet differs from the model")
		}
		if got := ev.Since(mark); !slices.Equal(got, log[markLen:]) {
			t.Fatalf("Since(mark) = %v, want the insertions after it %v", got, log[markLen:])
		}
		over := NewPairSet()
		for p := range model.All() {
			if !slices.Contains(table, p) {
				over.Add(p)
			}
		}
		if !ev.Overflow().Equal(over) {
			t.Fatalf("Overflow = %v, want the non-table pairs %v", ev.Overflow().Sorted(), over.Sorted())
		}
		ids := make([]int32, len(table))
		unset := 0
		for i, p := range table {
			ids[i] = int32(i)
			if !model.Has(p) {
				unset++
			}
		}
		if got := ev.CountUnset(ids); got != unset {
			t.Fatalf("CountUnset over the table = %d, want %d", got, unset)
		}
		if of := EvidenceOf(tbl, model); model.Len() > 0 && !slices.Equal(of.SortedKeys(), model.SortedKeys()) {
			t.Fatal("EvidenceOf(model) differs from the model")
		}
		// An ascending key list resolves by a merge walk: each search
		// starts where the last one ended.
		from := 0
		for _, k := range model.SortedKeys() {
			id, ok := tbl.FindFrom(from, k)
			if want := slices.Index(table, k.Pair()); ok != (want >= 0) || (ok && int(id) != want) {
				t.Fatalf("FindFrom %d of %v = %d, %v; the table has it at %d", from, k.Pair(), id, ok, want)
			}
			if ok {
				from = int(id) + 1
			}
		}
	})
}

// TestEvidenceNilAndEmpty: a nil Evidence reads as the empty set, and an
// Evidence over no table keeps everything in the overflow.
func TestEvidenceNilAndEmpty(t *testing.T) {
	var none *Evidence
	if none.HasID(3) || none.HasKey(MakePair(1, 2).Key()) || none.Len() != 0 || none.Overflow() != nil ||
		none.CountUnset([]int32{1, 2}) != 2 || none.SortedKeys() != nil || none.PairSet().Len() != 0 {
		t.Error("nil Evidence is not an empty set")
	}
	if EvidenceOf(mustTable(t, 2, []Pair{{0, 1}}), nil) != nil {
		t.Error("EvidenceOf an empty set should be nil")
	}
	ev := NewEvidence(nil)
	p := MakePair(2, 5)
	if !ev.AddKey(p.Key()) || ev.AddKey(p.Key()) || !ev.Overflow().Has(p) || ev.Len() != 1 {
		t.Error("a table-less Evidence should hold its pairs in the overflow")
	}
}

// TestFindIDNeverIndexesByKey: a key with its top bit set unpacks to a
// negative entity id; looking it up compares it and finds nothing.
func TestFindIDNeverIndexesByKey(t *testing.T) {
	table := mustTable(t, 3, []Pair{{0, 1}, {0, 2}, {1, 2}})
	for _, k := range []PairKey{1<<63 | 2, ^PairKey(0), 0} {
		if id, ok := table.Find(k.Pair()); ok {
			t.Errorf("Find(%#x) found id %d", uint64(k), id)
		}
		if id, ok := table.FindFrom(0, k); ok {
			t.Errorf("FindFrom(0, %#x) found id %d", uint64(k), id)
		}
		ev := NewEvidence(table)
		if ev.HasKey(k) {
			t.Errorf("HasKey(%#x) on an empty set", uint64(k))
		}
	}
}
