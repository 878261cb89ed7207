package canopy

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/bib"
	"repro/internal/datagen"
)

// TestIndexSaveLoadRoundTrip pins the postings-blob contract: a loaded
// index is fully equivalent to the saved one — identical cover now, and
// identical covers and deltas for every further Add.
func TestIndexSaveLoadRoundTrip(t *testing.T) {
	d := datagen.MustGenerate(datagen.HEPTHLike(0.25, 42))
	records := bib.ToRecords(d)
	half := len(records) / 2

	ix, err := NewIndex(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	firstHalf, err := bib.DatasetFromRecords("rt", records[:half])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Add(ctx, firstHalf); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadIndex(ix.Save(nil), firstHalf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != ix.Len() || loaded.Config() != ix.Config() {
		t.Fatalf("loaded index: %d records / %+v, want %d / %+v",
			loaded.Len(), loaded.Config(), ix.Len(), ix.Config())
	}
	if !coversEqual(loaded.Cover(), ix.Cover()) {
		t.Fatal("loaded cover differs from the saved one")
	}

	// Continue both with the remaining records: covers AND deltas agree.
	union, err := bib.DatasetFromRecords("rt", records)
	if err != nil {
		t.Fatal(err)
	}
	origCover, origDelta, err := ix.Add(ctx, union)
	if err != nil {
		t.Fatal(err)
	}
	loadCover, loadDelta, err := loaded.Add(ctx, union)
	if err != nil {
		t.Fatal(err)
	}
	if !coversEqual(origCover, loadCover) {
		t.Fatal("covers diverge after continuing a loaded index")
	}
	if origDelta.Additive != loadDelta.Additive ||
		len(origDelta.Changed) != len(loadDelta.Changed) ||
		len(origDelta.NewEntities) != len(loadDelta.NewEntities) {
		t.Fatalf("deltas diverge: %+v vs %+v", origDelta, loadDelta)
	}
}

// TestLoadIndexRejectsGarbage pins the failure modes: wrong magic,
// an older blob version, a corrupt or truncated body.
func TestLoadIndexRejectsGarbage(t *testing.T) {
	empty := &bib.Dataset{}
	if _, err := LoadIndex([]byte("not a postings blob"), empty, 1); err == nil {
		t.Fatal("LoadIndex accepted garbage")
	}
	if _, err := LoadIndex([]byte(indexBlobMagic+"trailing junk"), empty, 1); err == nil {
		t.Fatal("LoadIndex accepted a corrupt body")
	}
	// The previous layouts (gob throughout; gram maps + string-keyed
	// postings; a gram-table row per record; a cover that may keep subsumed
	// neighborhoods; candidate similarities stored; names and each record's
	// row stored) are refused by their magic, naming both versions, before
	// any decoding.
	for _, old := range []string{"CEMP1", "CEMP2", "CEMP3", "CEMP4", "CEMP5"} {
		if _, err := LoadIndex([]byte(old+"\nwhatever"), empty, 1); err == nil ||
			!strings.Contains(err.Error(), old) || !strings.Contains(err.Error(), "CEMP6") {
			t.Fatalf("LoadIndex on a %s blob: err = %v, want a version error naming %s and CEMP6", old, err, old)
		}
	}
	ix, err := NewIndex(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	blob := ix.Save(nil)
	if _, err := LoadIndex(blob, empty, 1); err != nil {
		t.Fatalf("an empty index does not reload: %v", err)
	}
	for i := len(indexBlobMagic); i < len(blob); i++ {
		if _, err := LoadIndex(blob[:i], empty, 1); err == nil {
			t.Fatalf("LoadIndex accepted the blob truncated to %d of %d bytes", i, len(blob))
		}
	}
	if _, err := LoadIndex(append(blob, 0), empty, 1); err == nil {
		t.Fatal("LoadIndex accepted a trailing byte")
	}
}

// savedIndex returns a small index as LoadIndex restores it from its blob,
// and the dataset it was built over, for tests to corrupt the index in place
// and save it again: Save writes the fields as they are, so each corruption
// below reaches LoadIndex as a blob. Its five records are in four rows, the
// dataset's name classes: john smith {0, 2}, jon smith {1}, the gramless
// "." {3} and x {4}.
func savedIndex(t testing.TB) (*Index, *bib.Dataset) {
	t.Helper()
	recs := []bib.Record{
		{Name: "john smith", Group: 0, Gold: -1}, {Name: "jon smith", Group: 1, Gold: -1},
		{Name: "john smith", Group: 1, Gold: -1}, {Name: ".", Group: 0, Gold: -1},
		{Name: "x", Group: -1, Gold: -1},
	}
	d, err := bib.DatasetFromRecords("wire", recs)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Add(context.Background(), d); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(ix.Save(nil), d, 1)
	if err != nil {
		t.Fatal(err)
	}
	return loaded, d
}

// TestLoadIndexValidatesIDs: a well-formed blob whose ids do not fit the
// sizes they index used to load and panic in the next emit or Add; every
// such blob must be refused at load.
func TestLoadIndexValidatesIDs(t *testing.T) {
	if ix, d := savedIndex(t); ix.n != 5 || len(ix.tab.grams) != 4 || d.Names().Class(2) != 0 || len(ix.cands[0]) != 2 || len(ix.cands[2]) != 0 {
		t.Fatalf("the index is not the one the corruptions below address: %d records, %d rows, candidates %v", ix.n, len(ix.tab.grams), ix.cands)
	}
	for name, corrupt := range map[string]func(ix *Index){
		"candidate row >= rows":     func(ix *Index) { ix.cands[0][len(ix.cands[0])-1].ID = 4 },
		"negative candidate row":    func(ix *Index) { ix.cands[1][0].ID = -1 },
		"candidates not ascending":  func(ix *Index) { ix.cands[0][0], ix.cands[0][1] = ix.cands[0][1], ix.cands[0][0] },
		"duplicate candidate":       func(ix *Index) { ix.cands[0][1] = ix.cands[0][0] },
		"row not its own candidate": func(ix *Index) { ix.cands[3] = nil },
		"candidates without grams":  func(ix *Index) { ix.cands[2] = []scored{{ID: 2, Sim: 1}} },
		"fewer candidate lists":     func(ix *Index) { ix.cands = ix.cands[:len(ix.cands)-1] },
		"more candidate lists":      func(ix *Index) { ix.cands = append(ix.cands, nil) },
		"fewer records":             func(ix *Index) { ix.n-- },
		"more records":              func(ix *Index) { ix.n++ },
		"cover member >= N":         func(ix *Index) { ix.cover.Sets[0][len(ix.cover.Sets[0])-1] = 99 },
		"negative cover member":     func(ix *Index) { ix.cover.Sets[0][0] = -1 },
		"cover members not ascending": func(ix *Index) {
			set := ix.cover.Sets[0]
			set[0], set[len(set)-1] = set[len(set)-1], set[0]
		},
		"empty cover set": func(ix *Index) { ix.cover.Sets[0] = nil },
		"NaN threshold":   func(ix *Index) { ix.cfg.Loose = math.NaN() },
	} {
		ix, d := savedIndex(t)
		corrupt(ix)
		if ix, err := LoadIndex(ix.Save(nil), d, 1); err == nil {
			t.Errorf("%s: LoadIndex accepted the blob (index of %d records)", name, ix.Len())
		}
	}
}

// TestLoadIndexRefusesDissimilarCandidate: a candidate list may only name
// rows at q-gram similarity >= Loose. A blob listing a dissimilar row — here
// "x" beside "john smith", both ways round so the lists stay symmetric — is
// refused; a version that loaded it would emit a canopy Canopies never
// builds, and the next Add's cover would differ from BuildCover's.
func TestLoadIndexRefusesDissimilarCandidate(t *testing.T) {
	ix, d := savedIndex(t)
	if names := d.Names(); names.Class(0) != 0 || names.Class(4) != 3 || names.Normalized(0) != "john smith" || names.Normalized(4) != "x" {
		t.Fatalf("records 0 and 4 are %q and %q, want john smith and x in rows 0 and 3", names.Normalized(0), names.Normalized(4))
	}
	if sim := ix.tab.similarity(0, 3); sim >= ix.cfg.Loose {
		t.Fatalf("john smith and x have similarity %v, not below Loose %v", sim, ix.cfg.Loose)
	}
	ix.cands[0] = append(ix.cands[0], scored{ID: 3, Sim: 1})
	ix.cands[3] = append([]scored{{ID: 0, Sim: 1}}, ix.cands[3]...)
	if _, err := LoadIndex(ix.Save(nil), d, 1); err == nil || !strings.Contains(err.Error(), "below Loose") {
		t.Fatalf("LoadIndex of a blob listing a dissimilar candidate: err = %v, want a below-Loose refusal", err)
	}
}

// TestLoadIndexRefusesAsymmetricCandidates: similarity is symmetric, so a
// candidate list names y exactly when y's names x. A blob where "john smith"
// lists "jon smith" but not the other way round, or the reverse, used to
// load, and its index emitted canopies Canopies never builds.
func TestLoadIndexRefusesAsymmetricCandidates(t *testing.T) {
	for _, drop := range [][2]int{{0, 1}, {1, 0}} {
		ix, d := savedIndex(t)
		if names := d.Names(); names.Class(1) != 1 || names.Normalized(0) != "john smith" || names.Normalized(1) != "jon smith" ||
			len(ix.cands[0]) != 2 || len(ix.cands[1]) != 2 || ix.cands[0][1].ID != 1 || ix.cands[1][0].ID != 0 {
			t.Fatalf("rows 0 and 1 are %q and %q with candidates %v and %v, want john smith and jon smith listing both",
				names.Normalized(0), names.Normalized(1), ix.cands[0], ix.cands[1])
		}
		x, y := drop[0], drop[1]
		ix.cands[x] = slices.DeleteFunc(ix.cands[x], func(c scored) bool { return c.ID == int32(y) })
		if _, err := LoadIndex(ix.Save(nil), d, 1); err == nil {
			t.Errorf("LoadIndex accepted a blob where row %d does not list row %d but row %d lists row %d", x, y, y, x)
		}
	}
}

// TestLoadIndexRecomputesSimilarities: the blob stores candidate rows only,
// so what an index held as a candidate's similarity cannot survive a save —
// every similarity is recomputed from the rows' gram sets, and a reloaded
// index continues to BuildCover's cover on the union. (A format that stored
// similarities loaded raised ones as they were, and the next Add's cover
// then kept a set fewer than BuildCover's.)
func TestLoadIndexRecomputesSimilarities(t *testing.T) {
	records := bib.ToRecords(datagen.MustGenerate(datagen.DBLPLike(0.3, 42)))
	half := len(records) / 2
	first, err := bib.DatasetFromRecords("sim", records[:half])
	if err != nil {
		t.Fatal(err)
	}
	union, err := bib.DatasetFromRecords("sim", records)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Add(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(ix.cands)
	for row, cands := range ix.cands {
		want[row] = slices.Clone(cands)
		for j := range cands {
			if int(cands[j].ID) != row {
				cands[j].Sim = 1 // raised past Tight: every candidate "well covered"
			}
		}
	}
	loaded, err := LoadIndex(ix.Save(nil), first, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.cands, want) {
		t.Fatal("the reloaded candidate lists differ from the ones probe scored")
	}
	cover, _, err := loaded.Add(context.Background(), union)
	if err != nil {
		t.Fatal(err)
	}
	if !coversEqual(cover, BuildCover(union, DefaultConfig())) {
		t.Fatal("a reloaded index continues to a cover that differs from BuildCover on the union")
	}
}

// TestIndexSaveDeterministic: a state has one blob. Two saves of one index,
// and the saves of two indexes fed the same batches, are byte-equal (the
// previous format held a map, which gob writes in iteration order), also
// after a round trip through LoadIndex.
func TestIndexSaveDeterministic(t *testing.T) {
	records := bib.ToRecords(datagen.MustGenerate(datagen.DBLPLike(0.1, 42)))
	ctx := context.Background()
	var blobs [][]byte
	for range 2 {
		ix, err := NewIndex(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var d *bib.Dataset
		for _, hi := range []int{len(records) / 2, len(records)} {
			if d, err = bib.DatasetFromRecords("det", records[:hi]); err != nil {
				t.Fatal(err)
			}
			if _, _, err := ix.Add(ctx, d); err != nil {
				t.Fatal(err)
			}
		}
		blobs = append(blobs, ix.Save(nil), ix.Save(nil))
		loaded, err := LoadIndex(blobs[0], d, 1)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, loaded.Save(nil))
	}
	for i, blob := range blobs {
		if !bytes.Equal(blob, blobs[0]) {
			t.Fatalf("save %d of the same state differs from the first (%d and %d bytes)", i, len(blob), len(blobs[0]))
		}
	}
}

// FuzzLoadIndex: no blob makes LoadIndex panic over savedIndex's dataset,
// one that loads re-saves to the same bytes, and it is safe to keep using —
// an Add of the same dataset runs emission and cover construction (when the
// blob carried no cover) or returns the loaded cover, and neither may index
// out of range.
func FuzzLoadIndex(f *testing.F) {
	ix, d := savedIndex(f)
	f.Add(ix.Save(nil))
	ix.cover = nil
	f.Add(ix.Save(nil))
	f.Add([]byte(indexBlobMagic))
	f.Add([]byte("CEMP5\n"))
	ix, _ = savedIndex(f)
	ix.n += 3 // more records than the dataset
	f.Add(ix.Save(nil))
	ix.n, ix.cands[1] = 5, append(ix.cands[1], scored{ID: 9}) // an id past every range
	f.Add(ix.Save(nil))
	ix, _ = savedIndex(f)
	ix.cands[0] = append(ix.cands[0], scored{ID: 3}) // a dissimilar candidate
	f.Add(ix.Save(nil))
	f.Fuzz(func(t *testing.T, blob []byte) {
		ix, err := LoadIndex(blob, d, 1)
		if err != nil {
			return
		}
		if again := ix.Save(nil); !bytes.Equal(again, blob) {
			t.Fatalf("a blob that loads re-saves to different bytes:\n%x\n%x", blob, again)
		}
		cover, _, err := ix.Add(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		for _, set := range cover.Sets {
			for _, e := range set {
				if e < 0 || int(e) >= ix.Len() {
					t.Fatalf("loaded index produced cover member %d over %d records", e, ix.Len())
				}
			}
		}
	})
}
