package bib

import (
	"math/rand"
	"testing"

	"repro/internal/similarity"
)

// TestNameTableLevels: the table's level of two references is NameLevel of
// their parsed names — x == y and both argument orders included, asked twice
// so hits are checked as well as misses — over enough distinct names to grow
// both memos several times; and each distinct pair of either kind is scored
// exactly once: every pair of distinct last names the classes carry, and
// every pair of distinct spelled-out classes whose last names are similar.
func TestNameTableLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	firsts := []string{"vibhor", "v", "nilesh", "n.", "minos", "", "jose maria", "Vibhor"}
	lasts := []string{"rastogi", "rastogy", "rastogie", "dalvi", "dalvy", "Dalvi", "garofalakis", "garofalakes",
		"suciu", "sucu", "halevy", "halevi", "widom", "widon", "ullman", "ulman", "abiteboul", "abitebol",
		"vianu", "viannu", "vardi", "vardy", "rastogi,"}
	d := &Dataset{Name: "names"}
	for i := 0; i < 400; i++ {
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
	lastPairs, classPairs := map[[2]string]bool{}, map[[2]similarity.Name]bool{}
	for pass := 0; pass < 2; pass++ {
		for a := range d.Refs {
			for b := range d.Refs {
				p, q := parsed[a], parsed[b]
				want := similarity.NameLevel(p, q)
				if got := tab.RefLevel(RefID(a), RefID(b)); got != want {
					t.Fatalf("pass %d: RefLevel(%q, %q) = %d, NameLevel %d", pass, d.Refs[a].Name, d.Refs[b].Name, got, want)
				}
				if p == q {
					continue
				}
				if p.Last != q.Last && !lastPairs[[2]string{q.Last, p.Last}] {
					lastPairs[[2]string{p.Last, q.Last}] = true
				}
				spelled := !p.Abbreviated() && !q.Abbreviated() && similarity.LastLevel(p.Last, q.Last) != similarity.LevelNone
				if spelled && !classPairs[[2]similarity.Name{q, p}] {
					classPairs[[2]similarity.Name{p, q}] = true
				}
			}
		}
	}
	scored := map[ScoredPair]bool{}
	lastN := 0
	for p, l := range tab.ScoredPairs() {
		if p.X >= p.Y || scored[p] {
			t.Fatalf("ScoredPairs yielded %+v out of order or twice", p)
		}
		scored[p] = true
		want := similarity.NameLevel(tab.names[p.X], tab.names[p.Y])
		if p.Last {
			lastN++
			want = similarity.LastLevel(tab.lasts[p.X], tab.lasts[p.Y])
		}
		if l != want {
			t.Fatalf("ScoredPairs yielded %+v at level %d, the kernel says %d", p, l, want)
		}
	}
	if lastN != len(lastPairs) || tab.Scored()-lastN != len(classPairs) || tab.Scored() != len(scored) {
		t.Errorf("scored %d last-name pairs and %d class pairs; the references have %d distinct unordered last-name pairs and %d spelled-out class pairs under similar last names",
			lastN, tab.Scored()-lastN, len(lastPairs), len(classPairs))
	}
	if lastN < 3*64 || tab.Scored()-lastN < 3*64 {
		t.Errorf("%d last-name and %d class pairs scored: the test must take each new 64-slot memo through two growths", lastN, tab.Scored()-lastN)
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
