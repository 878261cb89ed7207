package canopy

import (
	"bytes"
	"context"
	"encoding/gob"
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

	blob, err := ix.Save()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(blob)
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
// an older blob version, truncated gob, inconsistent payload.
func TestLoadIndexRejectsGarbage(t *testing.T) {
	if _, err := LoadIndex([]byte("not a postings blob")); err == nil {
		t.Fatal("LoadIndex accepted garbage")
	}
	if _, err := LoadIndex([]byte(indexBlobMagic + "trailing junk")); err == nil {
		t.Fatal("LoadIndex accepted a corrupt gob body")
	}
	// The previous layouts (gram maps + string-keyed postings; a gram-table
	// row per record; a cover that may keep subsumed neighborhoods) are
	// refused by their magic, naming both versions, before any decoding.
	for _, old := range []string{"CEMP1", "CEMP2", "CEMP3"} {
		if _, err := LoadIndex([]byte(old + "\nwhatever")); err == nil ||
			!strings.Contains(err.Error(), old) || !strings.Contains(err.Error(), "CEMP4") {
			t.Fatalf("LoadIndex on a %s blob: err = %v, want a version error naming %s and CEMP4", old, err, old)
		}
	}
	ix, err := NewIndex(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ix.Save()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIndex(blob[:len(blob)-4]); err == nil {
		t.Fatal("LoadIndex accepted a truncated blob")
	}
}

// savedWire returns the decoded wire form of a small saved index, for
// tests to corrupt and re-encode.
func savedWire(t testing.TB) indexWire {
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
	blob, err := ix.Save()
	if err != nil {
		t.Fatal(err)
	}
	var w indexWire
	if err := gob.NewDecoder(bytes.NewReader(blob[len(indexBlobMagic):])).Decode(&w); err != nil {
		t.Fatal(err)
	}
	return w
}

func encodeWire(t testing.TB, w indexWire) []byte {
	t.Helper()
	buf := bytes.NewBufferString(indexBlobMagic)
	if err := gob.NewEncoder(buf).Encode(&w); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadIndexValidatesIDs: a well-formed gob whose ids do not fit the
// sizes they index used to load and panic in the next emit or Add; every
// such blob must be refused at load. savedWire's five records are in four
// rows: john smith {0, 2}, jon smith {1}, the gramless "." {3} and x {4}.
func TestLoadIndexValidatesIDs(t *testing.T) {
	if w := savedWire(t); !slices.Equal(w.RowOf, []int32{0, 1, 0, 2, 3}) || len(w.Names) != 4 || len(w.Cands[0]) != 2 || len(w.Cands[2]) != 0 {
		t.Fatalf("the wire form is not the one the corruptions below address: %+v", w)
	}
	if _, err := LoadIndex(encodeWire(t, savedWire(t))); err != nil {
		t.Fatalf("the uncorrupted wire form does not load: %v", err)
	}
	for name, corrupt := range map[string]func(w *indexWire){
		"candidate row >= rows":     func(w *indexWire) { w.Cands[0][len(w.Cands[0])-1].ID = 4 },
		"negative candidate row":    func(w *indexWire) { w.Cands[1][0].ID = -1 },
		"candidates not ascending":  func(w *indexWire) { w.Cands[0][0], w.Cands[0][1] = w.Cands[0][1], w.Cands[0][0] },
		"duplicate candidate":       func(w *indexWire) { w.Cands[0][1] = w.Cands[0][0] },
		"row not its own candidate": func(w *indexWire) { w.Cands[3] = nil },
		"candidates without grams":  func(w *indexWire) { w.Cands[2] = []scored{{ID: 2, Sim: 1}} },
		"duplicate name":            func(w *indexWire) { w.Names[1] = w.Names[0] },
		"fewer candidate lists":     func(w *indexWire) { w.Cands = w.Cands[:len(w.Cands)-1] },
		"fewer names than rows":     func(w *indexWire) { w.Names, w.Cands = w.Names[:3], w.Cands[:3] },
		"record row >= rows":        func(w *indexWire) { w.RowOf[4] = 4 },
		"negative record row":       func(w *indexWire) { w.RowOf[0] = -1 },
		"rows not in arrival order": func(w *indexWire) { w.RowOf[0], w.RowOf[1] = 1, 0 },
		"record skips a row":        func(w *indexWire) { w.RowOf[3] = 3 },
		"row without a record":      func(w *indexWire) { w.RowOf[4] = 0 },
		"cover member >= N":         func(w *indexWire) { w.Sets[0][len(w.Sets[0])-1] = 99 },
		"negative cover member":     func(w *indexWire) { w.Sets[0][0] = -1 },
	} {
		w := savedWire(t)
		corrupt(&w)
		if ix, err := LoadIndex(encodeWire(t, w)); err == nil {
			t.Errorf("%s: LoadIndex accepted the blob (index of %d records)", name, ix.Len())
		}
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
		for _, hi := range []int{len(records) / 2, len(records)} {
			d, err := bib.DatasetFromRecords("det", records[:hi])
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := ix.Add(ctx, d); err != nil {
				t.Fatal(err)
			}
		}
		for range 2 {
			blob, err := ix.Save()
			if err != nil {
				t.Fatal(err)
			}
			blobs = append(blobs, blob)
		}
		loaded, err := LoadIndex(blobs[0])
		if err != nil {
			t.Fatal(err)
		}
		blob, err := loaded.Save()
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	for i, blob := range blobs {
		if !bytes.Equal(blob, blobs[0]) {
			t.Fatalf("save %d of the same state differs from the first (%d and %d bytes)", i, len(blob), len(blobs[0]))
		}
	}
}

// FuzzLoadIndex: no blob makes LoadIndex panic, and one that loads is
// safe to keep using — an Add that brings no new records runs emission
// and cover construction (when the blob carried no cover) or returns the
// loaded cover, and neither may index out of range.
func FuzzLoadIndex(f *testing.F) {
	w := savedWire(f)
	f.Add(encodeWire(f, w))
	w.HasCover, w.Sets = false, nil
	f.Add(encodeWire(f, w))
	f.Add([]byte(indexBlobMagic))
	f.Add([]byte("CEMP2\n"))
	w = savedWire(f)
	w.RowOf = append(w.RowOf, 1, 3, 0) // more records in known rows
	f.Add(encodeWire(f, w))
	w.RowOf[2], w.Cands[1] = 7, append(w.Cands[1], scored{ID: 9, Sim: 0.5}) // ids past every range
	f.Add(encodeWire(f, w))
	f.Fuzz(func(t *testing.T, blob []byte) {
		ix, err := LoadIndex(blob)
		if err != nil || ix.Len() == 0 || ix.Len() > 1<<10 {
			return
		}
		recs := make([]bib.Record, ix.Len())
		for i := range recs {
			recs[i] = bib.Record{Name: "n", Group: int32(i % 3), Gold: -1}
		}
		d, err := bib.DatasetFromRecords("fuzz", recs)
		if err != nil {
			t.Fatal(err)
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
