package bib

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestDatasetFromRecordsGroups(t *testing.T) {
	recs := []Record{
		{Name: "V. Rastogi", Group: 7, Gold: 0},
		{Name: "N. Dalvi", Group: 7, Gold: 1},
		{Name: "Solo Author", Group: -1, Gold: 2},
		{Name: "Vibhor Rastogi", Group: 9, Gold: 0},
		{Name: "M. Garofalakis", Group: 9, Gold: 3},
	}
	d, err := DatasetFromRecords("test", recs)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRefs() != 5 {
		t.Fatalf("NumRefs = %d, want 5", d.NumRefs())
	}
	// Group 7 → paper 0, ungrouped → paper 1, group 9 → paper 2.
	if d.NumPapers() != 3 {
		t.Fatalf("NumPapers = %d, want 3", d.NumPapers())
	}
	wantPapers := [][]RefID{{0, 1}, {2}, {3, 4}}
	for p, want := range wantPapers {
		if !reflect.DeepEqual(d.Papers[p].Refs, want) {
			t.Errorf("paper %d refs = %v, want %v", p, d.Papers[p].Refs, want)
		}
	}
	// Grouped records are coauthors; ungrouped ones are isolated.
	rel := d.Coauthor()
	if len(rel.Neighbors(0)) != 1 || rel.Neighbors(0)[0] != 1 {
		t.Errorf("coauthors of ref 0 = %v, want [1]", rel.Neighbors(0))
	}
	if len(rel.Neighbors(2)) != 0 {
		t.Errorf("ungrouped record has coauthors: %v", rel.Neighbors(2))
	}
	// Gold labels survive as ground truth.
	if !d.IsTrueMatch(0, 3) || d.IsTrueMatch(0, 1) {
		t.Error("gold labels not preserved")
	}
}

func TestDatasetFromRecordsErrors(t *testing.T) {
	if _, err := DatasetFromRecords("x", nil); err == nil {
		t.Error("empty record list accepted")
	}
	if _, err := DatasetFromRecords("x", []Record{{Name: ""}}); err == nil {
		t.Error("empty name accepted")
	}
}

func TestTruePairsSkipsUnknownLabels(t *testing.T) {
	recs := []Record{
		{Name: "A One", Group: -1, Gold: -1},
		{Name: "A One", Group: -1, Gold: -1},
		{Name: "B Two", Group: -1, Gold: 5},
		{Name: "B Two", Group: -1, Gold: 5},
	}
	d, err := DatasetFromRecords("unlabeled", recs)
	if err != nil {
		t.Fatal(err)
	}
	pairs := d.TruePairs()
	if len(pairs) != 1 || !pairs[[2]RefID{2, 3}] {
		t.Errorf("TruePairs = %v, want exactly {2,3}: unknown labels must not pair", pairs)
	}
}

// goodRecords write and read back unchanged; FuzzReadRecords starts from
// their file.
var goodRecords = []Record{
	{Name: "V. Rastogi", Group: 0, Gold: 4},
	{Name: "Name With Spaces", Group: -1, Gold: -1},
	{Name: "N. Dalvi", Group: 0, Gold: 12},
}

// badRecordInputs are files ReadRecords refuses; FuzzReadRecords starts
// from them too.
var badRecordInputs = []string{
	"",                       // no records
	"0\tnotanumber\tName\n",  // bad gold
	"x\t1\tName\n",           // bad group
	"justonefield\n",         // too few fields
	"4294967296\t0\tName\n",  // group overflows int32 (must not wrap to 0)
	"0\t2147483648\tName\n",  // gold overflows int32 (must not wrap negative)
	"0\t-2147483649\tName\n", // gold underflows int32
}

func TestRecordsRoundTrip(t *testing.T) {
	recs := goodRecords
	var buf bytes.Buffer
	if err := WriteRecords(&buf, "round-trip", recs); err != nil {
		t.Fatal(err)
	}
	name, got, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if name != "round-trip" {
		t.Errorf("name = %q", name)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("round trip: got %v, want %v", got, recs)
	}
}

func TestReadRecordsErrors(t *testing.T) {
	for _, bad := range badRecordInputs {
		if _, _, err := ReadRecords(bytes.NewBufferString(bad)); err == nil {
			t.Errorf("ReadRecords(%q): no error", bad)
		}
	}
}

// failingReader returns its data and then err, as a size-bounded request
// body does when a read passes the bound.
type failingReader struct {
	data string
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if r.data == "" {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestReadRecordsReportsReadError: a reader that fails mid-line leaves a
// partial last line, and ReadRecords reports the read error, not the line —
// whether the cut line parses as a record or not.
func TestReadRecordsReportsReadError(t *testing.T) {
	cause := errors.New("request body too large")
	for _, data := range []string{"# records x\n0\t1\tsmith\n2", "0\t1\tsmith\n2\t", "0\t1\tsmith\n2\t3\tjo"} {
		_, _, err := ReadRecords(&failingReader{data: data, err: cause})
		if !errors.Is(err, cause) {
			t.Errorf("input %q cut by a read error: got %v, want the read error", data, err)
		}
	}
}

// TestWriteRecordsRejectsLineBreaks: a line break in a record name, or in
// the corpus name (a line of the file too), would read back as other
// lines, so WriteRecords refuses either.
func TestWriteRecordsRejectsLineBreaks(t *testing.T) {
	for _, name := range []string{"bad\nname", "bad\rname", "trailing\n"} {
		if err := WriteRecords(io.Discard, "x", []Record{{Name: name, Group: -1, Gold: -1}}); err == nil {
			t.Errorf("WriteRecords accepted name %q", name)
		}
		if err := WriteRecords(io.Discard, name, goodRecords); err == nil || !strings.Contains(err.Error(), "corpus name") {
			t.Errorf("WriteRecords with corpus name %q = %v, want a refusal of the corpus name", name, err)
		}
	}
}

// TestWriteRecordsWritesOnlyReadableLines: the longest name WriteRecords
// accepts reads back at the widest group and gold ids, and one byte more
// is refused by WriteRecords because ReadRecords could not read its line.
func TestWriteRecordsWritesOnlyReadableLines(t *testing.T) {
	const wide = math.MinInt32
	longest := strings.Repeat("n", maxName)
	recs := []Record{{Name: longest, Group: wide, Gold: wide}, {Name: "after", Group: wide, Gold: wide}}
	var buf bytes.Buffer
	if err := WriteRecords(&buf, "long", recs); err != nil {
		t.Fatalf("WriteRecords refused a %d-byte name: %v", maxName, err)
	}
	if _, got, err := ReadRecords(&buf); err != nil || !reflect.DeepEqual(got, recs) {
		t.Fatalf("a %d-byte name does not read back: %v", maxName, err)
	}

	over := longest + "n"
	if err := CheckName(over); err == nil {
		t.Fatalf("CheckName accepted a %d-byte name", len(over))
	}
	if err := WriteRecords(io.Discard, "long", []Record{{Name: over, Group: -1, Gold: -1}}); err == nil {
		t.Fatalf("WriteRecords accepted a %d-byte name", len(over))
	}
	line := fmt.Sprintf("%d\t%d\t%s\n", wide, wide, over)
	if _, _, err := ReadRecords(strings.NewReader(line + line)); err == nil {
		t.Fatalf("ReadRecords read a %d-byte line: the bound is not tight", len(line))
	}
}

func TestToRecordsRoundTripsThroughDataset(t *testing.T) {
	recs := []Record{
		{Name: "V. Rastogi", Group: 3, Gold: 0},
		{Name: "N. Dalvi", Group: 3, Gold: 1},
		{Name: "V. Rastogi", Group: 8, Gold: 0},
	}
	d, err := DatasetFromRecords("rt", recs)
	if err != nil {
		t.Fatal(err)
	}
	back := ToRecords(d)
	if len(back) != len(recs) {
		t.Fatalf("len = %d, want %d", len(back), len(recs))
	}
	for i := range back {
		if back[i].Name != recs[i].Name || back[i].Gold != recs[i].Gold {
			t.Errorf("record %d: got %+v, want name/gold of %+v", i, back[i], recs[i])
		}
	}
	// Group structure is preserved (same-paper iff same original group).
	if back[0].Group != back[1].Group || back[0].Group == back[2].Group {
		t.Errorf("group structure lost: %+v", back)
	}
}
