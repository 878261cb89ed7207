package core

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/graph"
)

func mustTable(t testing.TB, n int, pairs []Pair) *CandidateTable {
	t.Helper()
	table, err := NewCandidateTable(n, pairs)
	if err != nil {
		t.Fatal(err)
	}
	return table
}

// TestCandidateTableValidation is the one validation of a candidate set,
// whichever matcher is then ground over it: what is refused, with which
// sentinel, and that any order of valid pairs yields the same table.
func TestCandidateTableValidation(t *testing.T) {
	const n = 4
	signBit := PairKey(1<<63 | 2).Pair() // A unpacks negative, yet A < B
	for name, tc := range map[string]struct {
		pairs      []Pair
		outOfRange bool
	}{
		"reflexive":        {pairs: []Pair{{1, 1}}},
		"not normalized":   {pairs: []Pair{{2, 1}}},
		"duplicate":        {pairs: []Pair{{0, 1}, {0, 1}}},
		"hidden duplicate": {pairs: []Pair{{1, 2}, {0, 1}, {2, 3}, {0, 1}}},
		"negative":         {pairs: []Pair{{-1, 2}}, outOfRange: true},
		"beyond n":         {pairs: []Pair{{0, 1}, {0, n}}, outOfRange: true},
		"far beyond n":     {pairs: []Pair{{5, 9}}, outOfRange: true},
		"sign bit":         {pairs: []Pair{signBit}, outOfRange: true},
	} {
		_, err := NewCandidateTable(n, tc.pairs)
		if err == nil {
			t.Errorf("%s: accepted", name)
		} else if errors.Is(err, ErrCandidateRange) != tc.outOfRange {
			t.Errorf("%s: got %v, ErrCandidateRange expected: %v", name, err, tc.outOfRange)
		}
	}

	ordered := []Pair{{0, 1}, {0, 2}, {1, 2}, {2, 3}}
	shuffled := []Pair{{2, 3}, {0, 2}, {1, 2}, {0, 1}}
	before := slices.Clone(shuffled)
	table, inOrder, err := TableOf(n, shuffled, func(p Pair) Pair { return p })
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(shuffled, before) {
		t.Error("TableOf reordered the caller's slice")
	}
	if !slices.Equal(table.Pairs(), ordered) || !slices.Equal(inOrder, ordered) {
		t.Errorf("table %v and candidates %v, want both %v", table.Pairs(), inOrder, ordered)
	}
	if _, same, _ := TableOf(n, ordered, func(p Pair) Pair { return p }); &same[0] != &ordered[0] {
		t.Error("TableOf copied candidates that were in table order")
	}
	var none *CandidateTable
	if _, ok := none.Find(Pair{0, 1}); ok || none.Len() != 0 || none.Pairs() != nil {
		t.Error("a nil table is not the empty table")
	}
}

// supportsByDefinition is the N(a) × N(b) grid the support join is
// defined by: shared counts the c1 = c2 combinations, and every other
// combination that is a candidate — the candidate itself excepted —
// counts once toward that candidate's multiplicity.
func supportsByDefinition(pairs []Pair, co *graph.Graph, id int) (shared int32, sup []Support) {
	counts := map[int32]int32{}
	for _, c1 := range co.Neighbors(pairs[id].A) {
		for _, c2 := range co.Neighbors(pairs[id].B) {
			if c1 == c2 {
				shared++
			} else if j := slices.Index(pairs, MakePair(c1, c2)); j >= 0 && j != id {
				counts[int32(j)]++
			}
		}
	}
	for j, n := range counts {
		sup = append(sup, Support{ID: j, N: n})
	}
	slices.SortFunc(sup, func(a, b Support) int { return int(a.ID - b.ID) })
	return shared, sup
}

// FuzzCandidateTable holds the table to a brute-force model over a small
// entity set: the pairs, graph and entity slices all come from the script.
// Search (present, absent, out-of-range and sign-bit pairs), id ranges,
// scoping of arbitrary slices — prepared and not — and the support join
// against its definition.
func FuzzCandidateTable(f *testing.F) {
	f.Add([]byte{7, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Add([]byte{3, 255, 255, 255, 255, 255, 255, 255, 255})
	f.Add([]byte{11, 1, 200, 33, 64, 9, 9, 9, 128, 77, 3, 250, 18, 91, 5, 0, 0, 42, 42, 170, 85, 170, 85})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 2 {
			return
		}
		n := 2 + int(script[0])%11
		bit := func(salt, a, b int) bool {
			x := script[(salt+a*n+b)%len(script)]
			return (int(x)+salt+a+b)%3 != 0
		}
		// The candidates, handed over in descending order every other
		// script so construction has to sort; the coauthor graph — dense
		// enough that a and b are often coauthors and share some.
		var model []Pair
		gb := graph.NewBuilder(n)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if bit(1, a, b) {
					model = append(model, Pair{EntityID(a), EntityID(b)})
				}
				if bit(5, b, a) {
					gb.AddEdge(int32(a), int32(b))
				}
			}
		}
		co := gb.Build()
		input := slices.Clone(model)
		if script[1]%2 == 1 {
			slices.Reverse(input)
		}
		table := mustTable(t, n, input)
		if !slices.Equal(table.Pairs(), model) || table.Len() != len(model) {
			t.Fatalf("table %v, want %v", table.Pairs(), model)
		}

		// Search: every pair over a little more than the entity set, and
		// keys no valid pair packs to.
		probes := []Pair{PairKey(1<<63 | 2).Pair(), (^PairKey(0)).Pair(), {A: 0, B: 1 << 30}, {A: 1 << 30, B: 1<<30 + 1}}
		for a := -1; a <= n; a++ {
			for b := a; b <= n+1; b++ {
				probes = append(probes, Pair{EntityID(a), EntityID(b)})
			}
		}
		for _, p := range probes {
			want := slices.Index(model, p)
			if id, ok := table.Find(p); ok != (want >= 0) || (ok && int(id) != want) {
				t.Fatalf("Find(%v) = %d, %v; the model has it at %d", p, id, ok, want)
			}
			for from := 0; from <= len(model); from++ {
				id, ok := table.FindFrom(from, p.Key())
				if found := want >= from; ok != found || (ok && int(id) != want) {
					t.Fatalf("FindFrom(%d, %v) = %d, %v; the model has it at %d", from, p, id, ok, want)
				}
			}
		}
		for e := 0; e < n; e++ {
			lo, hi := table.Range(EntityID(e))
			for id, p := range model {
				if in := lo <= int32(id) && int32(id) < hi; in != (p.A == EntityID(e)) {
					t.Fatalf("Range(%d) = [%d, %d), pair %d is %v", e, lo, hi, id, p)
				}
			}
		}

		// Scoping: the whole set, a scripted subset, both reversed, the
		// empty slice — unprepared, then as the neighborhoods of a cover.
		var all, subset []EntityID
		for e := 0; e < n; e++ {
			all = append(all, EntityID(e))
			if bit(9, e, e) {
				subset = append(subset, EntityID(e))
			}
		}
		rev := func(s []EntityID) []EntityID { r := slices.Clone(s); slices.Reverse(r); return r }
		sets := [][]EntityID{all, subset, rev(all), rev(subset), {}}
		scopeOf := func(set []EntityID) []int32 {
			var ids []int32
			for id, p := range model {
				if slices.Contains(set, p.A) && slices.Contains(set, p.B) {
					ids = append(ids, int32(id))
				}
			}
			return ids
		}
		check := func(when string) {
			for _, set := range sets {
				want := scopeOf(set)
				if got := table.ScopeIDs(set); !slices.Equal(got, want) {
					t.Fatalf("%s: ScopeIDs(%v) = %v, want %v", when, set, got, want)
				}
				cands := table.Candidates(set)
				if len(cands) != len(want) {
					t.Fatalf("%s: Candidates(%v) = %v", when, set, cands)
				}
				for i, id := range want {
					if cands[i] != model[id] {
						t.Fatalf("%s: Candidates(%v) = %v", when, set, cands)
					}
				}
			}
		}
		check("unprepared")
		cover := &Cover{NumEntities: n, Sets: sets}
		cs := table.PrepareCover(cover)
		if table.PrepareCover(cover) != cs {
			t.Fatal("a second PrepareCover of the same cover scoped it again")
		}
		check("prepared")
		seen := map[int32]bool{}
		for _, set := range sets {
			s := table.Scope(set)
			if (s == nil) != (len(set) == 0) {
				t.Fatalf("Scope(%v) = %v", set, s)
			}
			if s != nil {
				if seen[s.Index] || int(s.Index) >= len(sets) {
					t.Fatalf("scope index %d reused or out of range", s.Index)
				}
				seen[s.Index] = true
				if got := table.ScopeIDs(set); len(got) > 0 && &got[0] != &s.IDs[0] {
					t.Fatal("ScopeIDs of a prepared neighborhood is not the cached list")
				}
			}
		}
		if table.Scope(slices.Clone(all)) != nil {
			t.Fatal("Scope answered for a slice outside the cover")
		}

		// The support join, computed once per table and graph.
		sup := table.Supports(co)
		if table.Supports(co) != sup {
			t.Fatal("Supports joined twice for one graph")
		}
		for id := range model {
			shared, want := supportsByDefinition(model, co, id)
			if got := sup.Shared(int32(id)); got != shared {
				t.Fatalf("candidate %v: Shared = %d, want %d", model[id], got, shared)
			}
			if got := sup.Of(int32(id)); !slices.Equal(got, want) {
				t.Fatalf("candidate %v: supports %v, want %v", model[id], got, want)
			}
		}
	})
}
