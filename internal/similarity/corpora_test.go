package similarity_test

import (
	"testing"

	"repro/internal/bib"
	"repro/internal/canopy"
	"repro/internal/datagen"
	"repro/internal/similarity"
)

// TestNameLevelGuardOrderIdentical: running the last-name and first-name
// guards before the full-name score changes no level. Checked in both
// argument orders on every pair of distinct parsed names sharing a
// neighborhood of the three corpora's covers — the pairs blocking asks
// about — and on the cases the guards exist for.
func TestNameLevelGuardOrderIdentical(t *testing.T) {
	check := func(a, b similarity.Name) {
		t.Helper()
		want := similarity.NameLevelRef(a, b)
		if got, swapped := similarity.NameLevel(a, b), similarity.NameLevel(b, a); got != want || swapped != want {
			t.Errorf("NameLevel(%v, %v) = %d (swapped %d), reference %d", a, b, got, swapped, want)
		}
	}
	for _, c := range [][2]string{
		{"John Smith", "Jane Smith"},      // first-name guard rejects a high full-name score
		{"John Smith", "John Smythe"},     // both guards pass
		{"Maria Gonzalez", "Maria Gomez"}, // last-name guard rejects
		{"John Smith", "John Smith"}, {"J. Smith", "John Smith"}, {"Smith", "Smith"}, {"Smith", "John Smith"}, {".", "Smith"},
	} {
		check(similarity.ParseName(c[0]), similarity.ParseName(c[1]))
	}

	people, err := bib.DatasetFromRecords("people-like", datagen.MustGeneratePeople(datagen.PeopleLike(0.25, 42)))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*bib.Dataset{
		datagen.MustGenerate(datagen.HEPTHLike(0.25, 42)), datagen.MustGenerate(datagen.DBLPLike(0.25, 42)), people,
	} {
		parsed := make([]similarity.Name, d.NumRefs())
		for i := range d.Refs {
			parsed[i] = similarity.ParseName(d.Refs[i].Name)
		}
		seen := map[[2]similarity.Name]bool{}
		for _, set := range canopy.BuildCover(d, canopy.DefaultConfig()).Sets {
			for i, x := range set {
				for _, y := range set[i+1:] {
					if k := [2]similarity.Name{parsed[x], parsed[y]}; !seen[k] {
						seen[k] = true
						check(k[0], k[1])
					}
				}
			}
		}
		if len(seen) == 0 {
			t.Errorf("%s: no in-neighborhood name pairs", d.Name)
		}
	}
}
