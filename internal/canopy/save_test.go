package canopy

import (
	"bytes"
	"context"
	"encoding/gob"
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
	// The previous layout (gram maps + string-keyed postings) is refused by
	// its magic, naming both versions, before any decoding.
	if _, err := LoadIndex([]byte("CEMP1\nwhatever")); err == nil ||
		!strings.Contains(err.Error(), "CEMP1") || !strings.Contains(err.Error(), "CEMP2") {
		t.Fatalf("LoadIndex on a CEMP1 blob: err = %v, want a version error naming CEMP1 and CEMP2", err)
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
// such blob must be refused at load.
func TestLoadIndexValidatesIDs(t *testing.T) {
	if _, err := LoadIndex(encodeWire(t, savedWire(t))); err != nil {
		t.Fatalf("the uncorrupted wire form does not load: %v", err)
	}
	for name, corrupt := range map[string]func(w *indexWire){
		"candidate id >= N":         func(w *indexWire) { w.Cands[0][len(w.Cands[0])-1].ID = 99 },
		"negative candidate id":     func(w *indexWire) { w.Cands[1][0].ID = -1 },
		"candidates not ascending":  func(w *indexWire) { w.Cands[0][0], w.Cands[0][1] = w.Cands[0][1], w.Cands[0][0] },
		"duplicate candidate":       func(w *indexWire) { w.Cands[0][1] = w.Cands[0][0] },
		"record not its own cand":   func(w *indexWire) { w.Cands[4] = nil },
		"candidates without grams":  func(w *indexWire) { w.Cands[3] = []scored{{ID: 3, Sim: 1}} },
		"gram id >= dictionary":     func(w *indexWire) { w.Grams[0][len(w.Grams[0])-1] = int32(len(w.Dict)) },
		"negative gram id":          func(w *indexWire) { w.Grams[0][0] = -5 },
		"gram ids not ascending":    func(w *indexWire) { w.Grams[0][0], w.Grams[0][1] = w.Grams[0][1], w.Grams[0][0] },
		"duplicate dictionary gram": func(w *indexWire) { w.Dict[1] = w.Dict[0] },
		"fewer candidate lists":     func(w *indexWire) { w.Cands = w.Cands[:len(w.Cands)-1] },
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
	f.Add([]byte("CEMP1\n"))
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
