package bib

import (
	"math/rand"
	"testing"

	"repro/internal/similarity"
)

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
	if tab.Scored() < 3*64 {
		t.Errorf("%d pairs scored: the test must take a new 64-slot table through two growths", tab.Scored())
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
