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
// the distinct normalized names in row order, each record's row, the rows'
// cached candidate lists and the previous cover. The gram dictionary, the
// rows' gram ids and the postings are rebuilt on load by opening the rows
// again in order (gram ids are handed out in order of first appearance, so
// they come out as they were), the previous cover's containment index from
// its sets. The format is gob over a mirror struct — slices only, so saving
// one state twice gives the same bytes — behind a magic line naming the
// version; it is a cache, so a failed load (garbage, an older version, ids
// out of range) is recoverable by replaying records through a fresh index.
// Version 4 holds a non-redundant cover; a version-3 blob's cover may keep
// neighborhoods contained in others, so it is replayed rather than loaded.

const indexBlobMagic = "CEMP4\n"

// indexWire mirrors Index with exported fields for gob.
type indexWire struct {
	Cfg      Config
	Names    []string          // row -> normalized name
	RowOf    []int32           // record -> row
	Cands    [][]scored        // row -> loose candidate rows, ascending
	Sets     [][]core.EntityID // the last cover's sets
	HasCover bool              // false before the first Add
}

// Save serializes the index's full blocking state.
func (ix *Index) Save() ([]byte, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	w := indexWire{Cfg: ix.cfg, Names: ix.tab.names, RowOf: ix.tab.rowOf, Cands: ix.cands}
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
	rows, n := len(w.Names), len(w.RowOf)
	if rows != len(w.Cands) {
		return nil, fmt.Errorf("canopy: index blob inconsistent: %d names, %d candidate lists", rows, len(w.Cands))
	}
	for _, s := range w.Names {
		if _, fresh := ix.tab.rowFor(s); !fresh {
			return nil, fmt.Errorf("canopy: index blob lists name %q twice", s)
		}
	}
	// Rows are numbered in order of first appearance, so a record is in a row
	// seen before it or in the next one, and every row has a record.
	seen := 0
	for i, row := range w.RowOf {
		if row < 0 || int(row) > seen || int(row) >= rows {
			return nil, fmt.Errorf("canopy: index blob record %d: row %d, want one of the %d seen so far or the next of %d", i, row, seen, rows)
		}
		if int(row) == seen {
			seen++
		}
	}
	if seen != rows {
		return nil, fmt.Errorf("canopy: index blob inconsistent: %d of %d names have no record", rows-seen, rows)
	}
	for row, cands := range w.Cands {
		// A row with grams is its own candidate, one without has none:
		// emit relies on a seed's canopy containing the seed.
		self := false
		for j, c := range cands {
			if c.ID < 0 || int(c.ID) >= rows || (j > 0 && c.ID <= cands[j-1].ID) {
				return nil, fmt.Errorf("canopy: index blob row %d: candidate rows not ascending in [0,%d)", row, rows)
			}
			self = self || int(c.ID) == row
		}
		if self != (len(ix.tab.grams[row]) > 0) {
			return nil, fmt.Errorf("canopy: index blob row %d: candidate list disagrees with its grams", row)
		}
	}
	ix.tab.rowOf, ix.cands, ix.cnt = w.RowOf, w.Cands, make([]int32, rows)
	if w.HasCover {
		for i, set := range w.Sets {
			if len(set) == 0 || !ascendingBelow(set, n) {
				return nil, fmt.Errorf("canopy: index blob cover set %d: empty, or members not ascending in [0,%d)", i, n)
			}
		}
		ix.cover = core.NewCover(n, w.Sets)
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
