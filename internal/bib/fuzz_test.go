package bib

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/similarity"
)

// FuzzReadRecords: arbitrary input must never panic, and what ReadRecords
// accepts WriteRecords writes and ReadRecords reads back equal. A line
// holds a carriage return inside a name, which ReadRecords takes and
// CheckName refuses (as the service refuses such a key at its door): an
// input holding one must fail the write on that name, never write a file
// that reads back otherwise.
func FuzzReadRecords(f *testing.F) {
	var good strings.Builder
	if err := WriteRecords(&good, "round-trip", goodRecords); err != nil {
		f.Fatal(err)
	}
	f.Add(good.String())
	f.Add("# records x\n\n# a comment\n0\t1\tAlice Smith\n")
	f.Add("# records crlf\r\n3\t-1\tA. Smith\r\n-1\t-1\tname\twith tab\r\n")
	f.Add("# records a\rb\n-1\t-1\tdoe\rj\n")
	for _, bad := range badRecordInputs {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, input string) {
		name, recs, err := ReadRecords(strings.NewReader(input))
		if err != nil {
			return // malformed input is fine; panics are not
		}
		var buf bytes.Buffer
		if err := WriteRecords(&buf, name, recs); err != nil {
			if CheckName(name) == nil && !slices.ContainsFunc(recs, func(r Record) bool { return CheckName(r.Name) != nil }) {
				t.Fatalf("WriteRecords refused what ReadRecords read: %v", err)
			}
			return
		}
		name2, recs2, err := ReadRecords(&buf)
		if err != nil {
			t.Fatalf("reading back what WriteRecords wrote: %v", err)
		}
		if name2 != name || !slices.Equal(recs2, recs) {
			t.Fatalf("round trip changed the corpus: %q %v, then %q %v", name, recs, name2, recs2)
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
