package canopy

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/core"
)

// Index serialization — the postings section of the storage layer's state
// blob.
//
// A serving process that keeps its state in a disk store saves the delta
// index in the same blob as the run snapshot, after it; on restart,
// LoadIndex restores the full blocking state so ingestion resumes
// incrementally without re-probing the corpus. The section holds what
// cannot be derived — the distinct normalized names in row order, each
// record's row, the rows' candidate rows and the previous cover. The gram
// dictionary, the rows' gram ids and the postings are rebuilt on load by
// opening the rows again in order (gram ids are handed out in order of
// first appearance, so they come out as they were), each candidate's
// similarity from the two rows' gram sets with probe's own expression, and
// the previous cover's containment index from its sets.
//
// The layout is flat: the magic line naming the version, Loose and Tight
// as 8 little-endian IEEE 754 bytes each, then uvarints — Q, MaxAligned,
// FullBoundary (0 or 1) and MaxNeighborhood; the name count and each name
// as its byte length and bytes; the record count and each record's row;
// the candidate-list count and per row its length and candidate rows; 0
// before the first Add or 1 and the set count, then per cover set its
// length and members. A run of ascending ids is written as the first id and
// then the gap to each next one. Every count is bounded by the bytes that
// remain and every varint must be minimal, so a section that loads re-saves
// to the same bytes, and one state always saves to the same bytes. The
// section is a cache: a failed load (garbage, an older version, ids out of
// range, a candidate below Loose) is recoverable by replaying records
// through a fresh index. Versions up to 4 were gob; a version-3 blob's
// cover may keep neighborhoods contained in others.

const indexBlobMagic = "CEMP5\n"

// Save appends the index's full blocking state to dst, in the layout above.
func (ix *Index) Save(dst []byte) []byte {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	cfg, tab := &ix.cfg, ix.tab
	dst = append(dst, indexBlobMagic...)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(cfg.Loose))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(cfg.Tight))
	full := 0
	if cfg.FullBoundary {
		full = 1
	}
	for _, v := range []int{cfg.Q, cfg.MaxAligned, full, cfg.MaxNeighborhood, len(tab.names)} {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	for _, s := range tab.names {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(tab.rowOf)))
	for _, row := range tab.rowOf {
		dst = binary.AppendUvarint(dst, uint64(row))
	}
	dst = binary.AppendUvarint(dst, uint64(len(ix.cands)))
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

// LoadIndex restores an index saved with Save. The restored index is
// fully equivalent to the one that was saved: further Adds produce
// byte-identical covers and deltas. A load verifies that every name is
// listed once and every record's row is one seen before it or the next;
// that every id fits the size it indexes and every id list ascends; that
// each candidate list holds its own row exactly when the row has grams;
// that every candidate's similarity, recomputed from the gram sets,
// reaches Loose; and that the lists are symmetric, y listing x exactly
// when x lists y. So a blob that loads cannot make a later Add index out
// of range or emit a canopy Canopies would not.
func LoadIndex(data []byte) (*Index, error) {
	header, body, _ := bytes.Cut(data, []byte("\n"))
	if want := indexBlobMagic[:len(indexBlobMagic)-1]; string(header) != want {
		return nil, fmt.Errorf("canopy: index blob is version %.16q, this build reads %q", header, want)
	}
	r := &reader{b: body}
	cfg := Config{Loose: r.float(), Tight: r.float(), Q: r.int(), MaxAligned: r.int()}
	cfg.FullBoundary, cfg.MaxNeighborhood = r.flag(), r.int()
	if r.err != nil {
		return nil, r.err
	}
	ix, err := NewIndex(cfg)
	if err != nil {
		return nil, fmt.Errorf("canopy: index blob config: %w", err)
	}
	for range r.count() {
		s := r.str()
		if r.err != nil {
			return nil, r.err
		}
		if _, fresh := ix.tab.rowFor(s); !fresh {
			return nil, fmt.Errorf("canopy: index blob lists name %q twice", s)
		}
	}
	// Rows are numbered in order of first appearance, so a record is in a row
	// seen before it or in the next one, and every row has a record.
	rows := len(ix.tab.names)
	rowOf := make([]int32, r.count())
	seen := 0
	for i := range rowOf {
		row := r.uvarint()
		if r.err != nil {
			return nil, r.err
		}
		if row > uint64(seen) || row >= uint64(rows) {
			return nil, fmt.Errorf("canopy: index blob record %d: row %d, want one of the %d seen so far or the next of %d", i, row, seen, rows)
		}
		rowOf[i] = int32(row)
		if int(row) == seen {
			seen++
		}
	}
	if seen != rows {
		return nil, fmt.Errorf("canopy: index blob inconsistent: %d of %d names have no record", rows-seen, rows)
	}
	if lists := r.count(); r.err != nil {
		return nil, r.err
	} else if lists != rows {
		return nil, fmt.Errorf("canopy: index blob inconsistent: %d names, %d candidate lists", rows, lists)
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
	ix.tab.rowOf, ix.cands, ix.cnt = rowOf, cands, make([]int32, rows)
	if r.flag() {
		n := len(rowOf)
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

func (r *reader) str() string {
	n := r.count()
	if r.err != nil {
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
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
