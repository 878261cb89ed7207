package bib_test

import (
	"testing"

	"repro/internal/bib"
	"repro/internal/datagen"
	"repro/internal/similarity"
)

// TestNameTableMatchesKernelOnCorpora: on the generated corpora the name
// table resolves through its last-name memo, NameTable.Level equals
// similarity.NameLevel for every pair of classes, asked in both orders —
// HEPTH-like 0.5 (abbreviated first names), DBLP-like 1 (spelled-out names
// with typos) and people-like 0.7 (composite typed-field keys).
func TestNameTableMatchesKernelOnCorpora(t *testing.T) {
	people, err := bib.DatasetFromRecords("people-like", datagen.MustGeneratePeople(datagen.PeopleLike(0.7, 42)))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*bib.Dataset{
		datagen.MustGenerate(datagen.HEPTHLike(0.5, 42)),
		datagen.MustGenerate(datagen.DBLPLike(1, 42)),
		people,
	} {
		tab := d.Names()
		names := make([]similarity.Name, tab.Classes())
		for r := range bib.RefID(d.NumRefs()) {
			names[tab.Class(r)] = similarity.ParseName(d.Refs[r].Name)
		}
		similar := 0
		for x := range int32(len(names)) {
			for y := range int32(len(names)) {
				want := similarity.NameLevel(names[x], names[y])
				if got := tab.Level(x, y); got != want {
					t.Fatalf("%s: Level(%q, %q) = %d, NameLevel %d", d.Name, names[x], names[y], got, want)
				}
				if want != similarity.LevelNone && x < y {
					similar++
				}
			}
		}
		t.Logf("%s: %d classes, %d similar class pairs, %d kernel calls", d.Name, len(names), similar, tab.Scored())
	}
}
