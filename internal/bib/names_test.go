package bib

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/similarity"
)

// cacheIDs is the class-id universe of the model test: neighbors at the
// bottom, the largest legal ids at the top, and enough of them (24 ids, 276
// pairs) to take the new 64-slot table through three doublings.
var cacheIDs = func() []int32 {
	ids := []int32{math.MaxInt32, math.MaxInt32 - 1, 1 << 30, 1<<30 + 1}
	for i := int32(0); len(ids) < 24; i++ {
		ids = append(ids, i)
	}
	return ids
}()

// FuzzLevelCacheModel drives the flat level cache and a map[[2]int32]Level
// side by side: each three bytes of input pick two class ids and a level;
// the pair is looked up in both orders (both must agree with the map on
// presence and level) and, if absent, inserted through the slot find
// returned — the sequence NameTable.Level performs. x == y never reaches the
// cache (NameTable keeps self-levels apart; TestNameTableLevels covers
// them), so such picks are skipped.
func FuzzLevelCacheModel(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	long := make([]byte, 3*1200)
	rng.Read(long)
	f.Add(long) // fills most of the universe: every growth, many re-lookups
	f.Add([]byte{0, 1, 3, 1, 0, 0, 0, 0, 2})
	f.Add([]byte{0, 4, 1, 4, 0, 2}) // MaxInt32 with class 0, both orders
	f.Fuzz(func(t *testing.T, ops []byte) {
		c := newLevelCache()
		model := map[[2]int32]similarity.Level{}
		get := func(x, y int32) (similarity.Level, bool) {
			e := c.slots[c.find(pairKey(x, y))]
			return similarity.Level(e & levelMask), e != 0
		}
		for ; len(ops) >= 3; ops = ops[3:] {
			x, y := cacheIDs[int(ops[0])%len(cacheIDs)], cacheIDs[int(ops[1])%len(cacheIDs)]
			if x == y {
				continue
			}
			want, cached := model[[2]int32{min(x, y), max(x, y)}]
			for _, q := range [][2]int32{{x, y}, {y, x}} {
				if got, ok := get(q[0], q[1]); ok != cached || (ok && got != want) {
					t.Fatalf("pair %v: cache has (%d, %v), model (%d, %v)", q, got, ok, want, cached)
				}
			}
			if !cached {
				l := similarity.Level(ops[2] & levelMask)
				key := pairKey(x, y)
				c.fill(c.find(key), key|uint64(l))
				model[[2]int32{min(x, y), max(x, y)}] = l
			}
		}
		if c.n != len(model) {
			t.Fatalf("cache counts %d pairs, model %d", c.n, len(model))
		}
		if len(c.slots)&(len(c.slots)-1) != 0 || c.n*4 >= len(c.slots)*3 {
			t.Fatalf("%d pairs in %d slots: not a power of two under three quarters full", c.n, len(c.slots))
		}
		for p, want := range model {
			if got, ok := get(p[1], p[0]); !ok || got != want {
				t.Fatalf("pair %v after the run: cache has (%d, %v), model %d", p, got, ok, want)
			}
		}
	})
}

// TestNameTableLevels: the table's level of two references is NameLevel of
// their parsed names — x == y and both argument orders included, asked twice
// so hits are checked as well as misses — over enough distinct names to grow
// the cache several times; and each distinct pair is scored exactly once.
func TestNameTableLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	firsts := []string{"vibhor", "v", "nilesh", "n.", "minos", "", "jose maria", "Vibhor"}
	lasts := []string{"rastogi", "rastogy", "dalvi", "dalvy", "garofalakis", "rastogi,"}
	d := &Dataset{Name: "names"}
	for i := 0; i < 90; i++ {
		name := firsts[rng.Intn(len(firsts))] + " " + lasts[rng.Intn(len(lasts))]
		if i%30 == 0 {
			name = "." // parses to no name at all: level none even with itself
		}
		d.Refs = append(d.Refs, Reference{Name: name})
	}
	tab := d.Names()
	if tab.Classes() < 30 || tab.Classes() >= len(d.Refs) {
		t.Fatalf("%d classes over %d references: want shared and distinct names both", tab.Classes(), len(d.Refs))
	}
	parsed := make([]similarity.Name, len(d.Refs))
	for i := range d.Refs {
		parsed[i] = similarity.ParseName(d.Refs[i].Name)
		if got, want := tab.Normalized(RefID(i)), parsed[i].String(); got != want {
			t.Fatalf("Normalized(%d) = %q, want %q", i, got, want)
		}
	}
	pairs := map[[2]similarity.Name]bool{}
	for pass := 0; pass < 2; pass++ {
		for a := range d.Refs {
			for b := range d.Refs {
				want := similarity.NameLevel(parsed[a], parsed[b])
				if got := tab.RefLevel(RefID(a), RefID(b)); got != want {
					t.Fatalf("pass %d: RefLevel(%q, %q) = %d, NameLevel %d", pass, d.Refs[a].Name, d.Refs[b].Name, got, want)
				}
				if parsed[a] != parsed[b] && !pairs[[2]similarity.Name{parsed[b], parsed[a]}] {
					pairs[[2]similarity.Name{parsed[a], parsed[b]}] = true
				}
			}
		}
	}
	if tab.Scored() != len(pairs) {
		t.Errorf("scored %d class pairs, the references have %d distinct unordered ones", tab.Scored(), len(pairs))
	}
	if len(tab.pairs.slots) < 8<<levelCacheMinShift {
		t.Errorf("cache ended at %d slots: the test must take it through growths", len(tab.pairs.slots))
	}
}

// TestNamesRebuiltWhenRefsGrow: the table is built once per dataset and
// rebuilt, without an invalidation, when it no longer has one entry per
// reference. (A reference renamed in place needs InvalidateCoauthor:
// TestCoauthor.)
func TestNamesRebuiltWhenRefsGrow(t *testing.T) {
	d := tiny()
	tab := d.Names()
	if d.Names() != tab {
		t.Fatal("Names must be cached")
	}
	d.Refs = append(d.Refs, Reference{Name: "A. Smith", Paper: 0})
	d.Papers[0].Refs = append(d.Papers[0].Refs, RefID(len(d.Refs)-1))
	if d.Names() == tab {
		t.Fatal("a table shorter than Refs must be rebuilt")
	}
	if got, want := d.Names().Class(RefID(len(d.Refs)-1)), d.Names().Class(0); got != want {
		t.Errorf("appended A. Smith in class %d, the first one in %d", got, want)
	}
}
