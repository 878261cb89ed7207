package bib

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/similarity"
)

// FuzzRead: arbitrary input must never panic, and any dataset that
// parses must validate and round-trip.
func FuzzRead(f *testing.F) {
	f.Add("# dataset x\nP\tt\t2000\t-\nR\t0\t0\tAlice Smith\n")
	f.Add("P\ttitle\t1999\t0,1\n")
	f.Add("R\t0\t0\tname\n")
	f.Add("")
	f.Add("# dataset y\nP\ta\t1\t-\nP\tb\t2\t0\nR\t1\t5\tX Y\nR\t0\t5\tX Z\n")
	f.Add("P\tt\t2000\t-\nR\t0\t-1\tn\n")
	f.Fuzz(func(t *testing.T, input string) {
		d, err := Read(strings.NewReader(input))
		if err != nil {
			return // malformed input is fine; panics are not
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("Read returned an invalid dataset: %v", err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, d); err != nil {
			t.Fatalf("Write of parsed dataset failed: %v", err)
		}
		d2, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(d2.Refs) != len(d.Refs) || len(d2.Papers) != len(d.Papers) {
			t.Fatalf("round trip changed sizes: %d/%d vs %d/%d",
				len(d.Refs), len(d.Papers), len(d2.Refs), len(d2.Papers))
		}
	})
}

// FuzzNameTableLevel: the name table resolves a pair through its last names
// first and keeps a class entry only for two spelled-out names, and none of
// that shows: RefLevel of any two references equals NameLevel of their
// parsed names, in both orders, whichever memo entry an earlier question
// filled. The four references are built from two first and two last tokens
// — initials, empty first names, names with no tokens at all, case and
// punctuation variants — so they share last names, classes, or neither.
func FuzzNameTableLevel(f *testing.F) {
	f.Add("v.", "rastogi", "vibhor", "Rastogi,")
	f.Add("", "dalvi", "n", "dalvy")
	f.Add("v", "rastogi", "n.", "rastogy")
	f.Add("", "", ".", "x")
	f.Add("jose maria", "garofalakis", "J", "garofalakes")
	f.Add("John", "smith", "jane", "SMITH")
	f.Add("a b", "", "A.B.", "c")
	f.Fuzz(func(t *testing.T, first1, last1, first2, last2 string) {
		d := &Dataset{Name: "fuzz"}
		for _, name := range []string{first1 + " " + last1, first2 + " " + last2, first1 + " " + last2, first2 + " " + last1} {
			d.Refs = append(d.Refs, Reference{Name: name})
		}
		tab := d.Names()
		for a := range RefID(len(d.Refs)) {
			for b := range RefID(len(d.Refs)) {
				want := similarity.NameLevel(similarity.ParseName(d.Refs[a].Name), similarity.ParseName(d.Refs[b].Name))
				if got := tab.RefLevel(a, b); got != want {
					t.Fatalf("RefLevel(%q, %q) = %d, NameLevel %d", d.Refs[a].Name, d.Refs[b].Name, got, want)
				}
			}
		}
	})
}
