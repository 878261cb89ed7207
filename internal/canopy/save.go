package canopy

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/bib"
	"repro/internal/core"
)

// Index serialization — the postings section of the storage layer's state
// blob.
//
// A serving process that keeps its state in a disk store saves the delta
// index in the same blob as the run snapshot, after it; on restart,
// LoadIndex restores the full blocking state so ingestion resumes
// incrementally without re-probing the corpus. The section holds what
// cannot be derived from the dataset the index was built over — the rows'
// candidate rows and the previous cover — and two counts to check that
// dataset against. The rows are the dataset's name classes, so the names,
// the gram dictionary, the rows' gram ids and the postings are rebuilt on
// load by opening the rows again from the dataset (gram ids are handed out
// in order of first appearance, so they come out as they were), each
// candidate's similarity from the two rows' gram sets with probe's own
// expression, and the previous cover's containment index from its sets.
//
// The layout is flat: the magic line naming the version, Loose and Tight
// as 8 little-endian IEEE 754 bytes each, then uvarints — Q, MaxAligned,
// FullBoundary (0 or 1) and MaxNeighborhood; the record count; the
// candidate-list count (the row count) and per row its length and candidate
// rows; 0 before the first Add or 1 and the set count, then per cover set
// its length and members. A run of ascending ids is written as the first id
// and then the gap to each next one. Every count of what follows is bounded
// by the bytes that remain and every varint must be minimal, so a section
// that loads re-saves to the same bytes, and one state always saves to the
// same bytes. The section is a cache: a failed load (garbage, an older
// version, another dataset's counts, ids out of range, a candidate below
// Loose) is recoverable by replaying records through a fresh index.
// Versions up to 4 were gob; a version-3 blob's cover may keep
// neighborhoods contained in others; version 5 also held the normalized
// names and each record's row.

const indexBlobMagic = "CEMP6\n"

// Save appends the index's full blocking state to dst, in the layout above.
func (ix *Index) Save(dst []byte) []byte {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	cfg := &ix.cfg
	dst = append(dst, indexBlobMagic...)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(cfg.Loose))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(cfg.Tight))
	full := 0
	if cfg.FullBoundary {
		full = 1
	}
	for _, v := range []int{cfg.Q, cfg.MaxAligned, full, cfg.MaxNeighborhood, ix.n, len(ix.cands)} {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	for _, cands := range ix.cands {
		dst = binary.AppendUvarint(dst, uint64(len(cands)))
		prev := int64(0)
		for _, c := range cands {
			dst = binary.AppendUvarint(dst, uint64(int64(c.ID)-prev))
			prev = int64(c.ID)
		}
	}
	if ix.cover == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = binary.AppendUvarint(dst, uint64(len(ix.cover.Sets)))
	for _, set := range ix.cover.Sets {
		dst = binary.AppendUvarint(dst, uint64(len(set)))
		prev := int64(0)
		for _, e := range set {
			dst = binary.AppendUvarint(dst, uint64(int64(e)-prev))
			prev = int64(e)
		}
	}
	return dst
}

// LoadIndex restores an index saved with Save over the records of d, to
// score on `shards` workers as BuildIndex's do. d must be the dataset the
// saved index had added last (or one with the same names); the restored
// index is then fully equivalent to the one that was saved: further Adds
// produce byte-identical covers and deltas. A load verifies that the blob
// counts d's records and d's name classes, one candidate list per class;
// that every id fits the size it indexes and every id list ascends; that
// each candidate list holds its own row exactly when the row has grams;
// that every candidate's similarity, recomputed from the gram sets of d's
// names, reaches Loose; and that the lists are symmetric, y listing x
// exactly when x lists y. So a blob that loads cannot make a later Add index
// out of range or emit a canopy Canopies would not.
func LoadIndex(data []byte, d *bib.Dataset, shards int) (*Index, error) {
	header, body, _ := bytes.Cut(data, []byte("\n"))
	if want := indexBlobMagic[:len(indexBlobMagic)-1]; string(header) != want {
		return nil, fmt.Errorf("canopy: index blob is version %.16q, this build reads %q", header, want)
	}
	r := &reader{b: body}
	cfg := Config{Loose: r.float(), Tight: r.float(), Q: r.int(), MaxAligned: r.int()}
	cfg.FullBoundary, cfg.MaxNeighborhood = r.flag(), r.int()
	records := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("canopy: index blob config: %w", err)
	}
	names := d.Names()
	if records != uint64(d.NumRefs()) {
		return nil, fmt.Errorf("canopy: index blob holds %d records, the dataset %d", records, d.NumRefs())
	}
	rows := names.Classes()
	if lists := r.count(); r.err != nil {
		return nil, r.err
	} else if lists != rows {
		return nil, fmt.Errorf("canopy: index blob holds %d candidate lists, the dataset %d name classes", lists, rows)
	}
	ix := newIndex(cfg, shards)
	if err := ix.tab.openRows(names, 0, d.NumRefs()); err != nil {
		return nil, err // unreachable: a dataset's classes are numbered in order
	}
	cands := make([][]scored, rows)
	var ids []int32
	for row := range cands {
		if ids = r.ascending(ids[:0], rows); r.err != nil {
			return nil, r.err
		}
		// A row with grams is its own candidate, one without has none:
		// emit relies on a seed's canopy containing the seed.
		self := false
		list := make([]scored, len(ids))
		for j, y := range ids {
			sim := ix.tab.similarity(int32(row), y)
			if !(sim >= cfg.Loose) {
				return nil, fmt.Errorf("canopy: index blob row %d: candidate row %d has similarity %v, below Loose %v", row, y, sim, cfg.Loose)
			}
			list[j] = scored{ID: y, Sim: sim}
			self = self || int(y) == row
		}
		if self != (len(ix.tab.grams[row]) > 0) {
			return nil, fmt.Errorf("canopy: index blob row %d: candidate list disagrees with its grams", row)
		}
		cands[row] = list
	}
	// Similarity is symmetric, so y must list x exactly when x lists y.
	// Rows in ascending order consume each list in its own order: y's
	// cursor must meet x at every x that lists y. Every entry consumes one,
	// so no list can be left with an entry unmet.
	cur := make([]int32, rows)
	for x, list := range cands {
		for _, c := range list {
			y := c.ID
			if int(cur[y]) == len(cands[y]) || cands[y][cur[y]].ID != int32(x) {
				return nil, fmt.Errorf("canopy: index blob candidate lists not symmetric: row %d lists row %d, whose list disagrees", x, y)
			}
			cur[y]++
		}
	}
	ix.n, ix.cands, ix.cnt = d.NumRefs(), cands, make([]int32, rows)
	if r.flag() {
		n := ix.n
		sets := make([][]core.EntityID, r.count())
		for i := range sets {
			if sets[i] = r.ascending(nil, n); r.err != nil {
				return nil, r.err
			} else if len(sets[i]) == 0 {
				return nil, fmt.Errorf("canopy: index blob cover set %d is empty", i)
			}
		}
		ix.cover = core.NewCover(n, sets)
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) > 0 {
		return nil, fmt.Errorf("canopy: index blob has %d trailing bytes", len(r.b))
	}
	return ix, nil
}

// similarity is probe's q-gram Jaccard of rows x and y, recomputed from
// their gram sets with probe's own expression.
func (t *gramTable) similarity(x, y int32) float64 {
	gx, gy := t.grams[x], t.grams[y]
	c := 0
	for i, j := 0, 0; i < len(gx) && j < len(gy); {
		switch {
		case gx[i] < gy[j]:
			i++
		case gx[i] > gy[j]:
			j++
		default:
			c, i, j = c+1, i+1, j+1
		}
	}
	return float64(c) / float64(len(gx)+len(gy)-c)
}

// reader consumes an index blob's body, keeping the first error instead of
// forcing a check after every field.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("canopy: index blob "+format, args...)
	}
}

// uvarint reads a minimal uvarint: one whose last byte is not a zero group,
// so that each value has one encoding.
func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.fail("has a malformed varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads a length prefix, bounded by the bytes that remain: every
// element takes at least one.
func (r *reader) count() int {
	v := r.uvarint()
	if v > uint64(len(r.b)) {
		r.fail("count %d exceeds the %d bytes that remain", v, len(r.b))
		return 0
	}
	return int(v)
}

// int reads a config integer; a value past int's range wraps negative,
// which Config.Validate refuses.
func (r *reader) int() int { return int(r.uvarint()) }

func (r *reader) flag() bool {
	v := r.uvarint()
	if v > 1 {
		r.fail("flag is %d, want 0 or 1", v)
	}
	return v == 1
}

func (r *reader) float() float64 {
	if r.err == nil && len(r.b) < 8 {
		r.fail("is truncated in its config")
	}
	if r.err != nil {
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// ascending appends to dst a run of ids written as the first id and the
// gaps after it, refusing ids that are not strictly ascending in [0, bound).
func (r *reader) ascending(dst []int32, bound int) []int32 {
	prev := uint64(0)
	for j := range r.count() {
		gap := r.uvarint()
		if r.err != nil {
			return dst
		}
		if (j > 0 && gap == 0) || gap >= uint64(bound) || prev+gap >= uint64(bound) {
			r.fail("ids not strictly ascending in [0,%d)", bound)
			return dst
		}
		prev += gap
		dst = append(dst, int32(prev))
	}
	return dst
}
