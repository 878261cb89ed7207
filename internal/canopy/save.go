package canopy

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/core"
)

// Index serialization — the "postings blob" of the storage layer.
//
// A serving process that keeps its state in a disk store saves the
// delta index alongside the run snapshot; on restart, LoadIndex
// restores the full blocking state so ingestion resumes incrementally
// without re-probing the corpus. The blob holds what cannot be derived —
// the gram dictionary, each record's gram ids, the cached candidate
// lists and the previous cover — and postings are rebuilt on load. The
// format is gob over a mirror struct behind a magic line naming the
// version; it is a cache, so a failed load (garbage, an older version, ids
// out of range) is recoverable by replaying records through a fresh index.

const indexBlobMagic = "CEMP2\n"

// indexWire mirrors Index with exported fields for gob.
type indexWire struct {
	Cfg      Config
	Dict     []string  // gram id -> gram
	Grams    [][]int32 // record -> ascending distinct gram ids
	Cands    [][]scored
	PrevSets map[string]bool
	Sets     [][]core.EntityID // the last cover's sets
	HasCover bool              // false before the first Add
}

// Save serializes the index's full blocking state.
func (ix *Index) Save() ([]byte, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	w := indexWire{
		Cfg:      ix.cfg,
		Dict:     make([]string, len(ix.tab.ids)),
		Grams:    ix.tab.grams,
		Cands:    ix.cands,
		PrevSets: ix.prevSets,
	}
	for g, id := range ix.tab.ids {
		w.Dict[id] = g
	}
	if ix.cover != nil {
		w.HasCover = true
		w.Sets = ix.cover.Sets
	}
	var buf bytes.Buffer
	buf.WriteString(indexBlobMagic)
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, fmt.Errorf("canopy: encoding index: %w", err)
	}
	return buf.Bytes(), nil
}

// LoadIndex restores an index saved with Save. The restored index is
// fully equivalent to the one that was saved: further Adds produce
// byte-identical covers and deltas. Every id in the blob is checked, so a
// blob that loads cannot make a later Add index out of range.
func LoadIndex(data []byte) (*Index, error) {
	header, body, _ := bytes.Cut(data, []byte("\n"))
	if want := indexBlobMagic[:len(indexBlobMagic)-1]; string(header) != want {
		return nil, fmt.Errorf("canopy: index blob is version %.16q, this build reads %q", header, want)
	}
	var w indexWire
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&w); err != nil {
		return nil, fmt.Errorf("canopy: decoding index: %w", err)
	}
	ix, err := NewIndex(w.Cfg)
	if err != nil {
		return nil, fmt.Errorf("canopy: index blob config: %w", err)
	}
	n := len(w.Grams)
	if n != len(w.Cands) {
		return nil, fmt.Errorf("canopy: index blob inconsistent: %d gram lists, %d candidate lists", n, len(w.Cands))
	}
	for id, g := range w.Dict {
		if _, dup := ix.tab.ids[g]; dup {
			return nil, fmt.Errorf("canopy: index blob lists gram %q twice", g)
		}
		ix.tab.ids[g] = int32(id)
	}
	ix.tab.postings = make([][]int32, len(w.Dict))
	ix.tab.grams, ix.cands, ix.n = w.Grams, w.Cands, n
	for i, gs := range w.Grams {
		if !ascendingBelow(gs, len(w.Dict)) {
			return nil, fmt.Errorf("canopy: index blob record %d: gram ids not ascending in [0,%d)", i, len(w.Dict))
		}
		for _, g := range gs {
			ix.tab.postings[g] = append(ix.tab.postings[g], int32(i))
		}
		// A record with grams is its own candidate, one without has none:
		// emit relies on a seed's canopy containing the seed.
		self := false
		for j, c := range w.Cands[i] {
			if c.ID < 0 || int(c.ID) >= n || (j > 0 && c.ID <= w.Cands[i][j-1].ID) {
				return nil, fmt.Errorf("canopy: index blob record %d: candidate ids not ascending in [0,%d)", i, n)
			}
			self = self || int(c.ID) == i
		}
		if self != (len(gs) > 0) {
			return nil, fmt.Errorf("canopy: index blob record %d: candidate list disagrees with its grams", i)
		}
	}
	ix.prevSets = w.PrevSets // nil when empty: only ever read, then replaced
	if w.HasCover {
		for i, set := range w.Sets {
			if !ascendingBelow(set, n) {
				return nil, fmt.Errorf("canopy: index blob cover set %d: members not ascending in [0,%d)", i, n)
			}
		}
		ix.cover = core.NewCover(n, w.Sets)
		ix.prevByID = ix.cover.Sets
	}
	return ix, nil
}

// ascendingBelow reports whether ids is strictly ascending within [0, n).
func ascendingBelow(ids []int32, n int) bool {
	for i, id := range ids {
		if id < 0 || int(id) >= n || (i > 0 && id <= ids[i-1]) {
			return false
		}
	}
	return true
}
