package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Disk is the log-structured on-disk store: evidence lives in
// append-only segment files (ev-NNNNNNNN.seg, see segment.go) under the
// root directory, blobs under blob/<kind>/<name>. The segments are a
// durable Trail and blobs commit through the same function, so a crash
// can never leave a torn file under a committed name and a returned put
// survives a power cut; what a crash DURING a commit leaves behind, open
// repairs by the trail's rules (orphans removed, a torn trailing segment
// quarantined, damage anywhere else a hard error).
//
// Reads never materialize the evidence set: each segment keeps only a
// sparse in-memory index (one 32-byte entry per block of ≤ BlockKeys
// keys), point and range lookups decode single blocks on demand through
// a small cache, and iteration streams a k-way merge across segments.
// Once more than CompactEvery segments accumulate, a put compacts them
// into one merged, deduplicated segment.
type Disk struct {
	trail        Trail
	blockKeys    int
	compactEvery int

	mu      sync.RWMutex
	segs    []*diskSegment
	nextSeq int
	cache   *blockCache
	closed  bool
}

// diskSegment is one open segment: its path and sparse block index.
type diskSegment struct {
	path   string
	seq    int
	blocks []segBlock
}

const segFormat = "ev-%08d.seg"

// OpenDisk opens (creating if needed) a disk store rooted at o.Dir.
func OpenDisk(o Options) (*Disk, error) { return openDisk(o, osFS{}) }

func openDisk(o Options, sys fsys) (*Disk, error) {
	if o.Dir == "" {
		return nil, fmt.Errorf("store: the disk store needs a directory (WithDir)")
	}
	if err := sys.MkdirAll(o.Dir); err != nil {
		return nil, fmt.Errorf("store: disk dir: %w", err)
	}
	d := &Disk{
		trail:        Trail{Dir: o.Dir, Format: segFormat, Durable: true, Logf: o.Logf, fs: sys},
		blockKeys:    o.BlockKeys,
		compactEvery: o.CompactEvery,
		cache:        newBlockCache(16),
	}
	if d.blockKeys <= 0 {
		d.blockKeys = defaultBlockKeys
	}
	if d.compactEvery <= 0 {
		d.compactEvery = defaultCompactEvery
	}
	// Every segment is fully verified: the whole file decodes and
	// re-encodes canonically.
	if err := d.trail.Scan(d.addSegment); err != nil {
		return nil, err
	}
	return d, nil
}

// addSegment verifies one segment's bytes and appends its sparse index.
func (d *Disk) addSegment(seq int, data []byte) error {
	seg := &diskSegment{path: d.trail.Path(seq), seq: seq}
	err := walkSegment(data, func(meta segBlock, _ []uint64) error {
		seg.blocks = append(seg.blocks, meta)
		return nil
	})
	if err != nil {
		return err
	}
	d.segs = append(d.segs, seg)
	d.nextSeq = seq + 1
	return nil
}

// Name implements Store.
func (d *Disk) Name() string { return "disk" }

// Dir returns the store's root directory.
func (d *Disk) Dir() string { return d.trail.Dir }

// Segments returns the current segment-file count (diagnostics and
// compaction tests).
func (d *Disk) Segments() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.segs)
}

// PutEvidence implements Store: the batch becomes one new segment file,
// committed atomically; crossing the compaction threshold merges every
// segment into one.
func (d *Disk) PutEvidence(keys []uint64) error {
	if err := checkBatch(keys); err != nil {
		return err
	}
	if len(keys) == 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("store: disk store is closed")
	}
	if err := d.writeSegment(keys); err != nil {
		return err
	}
	if len(d.segs) > d.compactEvery {
		return d.compact()
	}
	return nil
}

// writeSegment encodes keys as the next segment and commits it. Caller
// holds mu.
func (d *Disk) writeSegment(keys []uint64) error {
	data, err := encodeSegment(splitBlocks(keys, d.blockKeys))
	if err != nil {
		return err
	}
	if err := d.trail.Commit(d.nextSeq, data); err != nil {
		return err
	}
	if err := d.addSegment(d.nextSeq, data); err != nil {
		return fmt.Errorf("store: re-reading just-written segment: %w", err)
	}
	return nil
}

// compact merges every segment into one deduplicated segment and
// removes the inputs. Crash safety needs no journal: the merged segment
// commits under a NEW sequence number before any input is removed, and
// evidence has set semantics, so a crash at any point leaves a
// directory whose union is unchanged. Caller holds mu.
func (d *Disk) compact() error {
	var merged []uint64
	if err := d.rangeLocked(0, ^uint64(0), func(k uint64) bool {
		merged = append(merged, k)
		return true
	}); err != nil {
		return err
	}
	old := d.segs
	if err := d.writeSegment(merged); err != nil {
		return err
	}
	d.segs = d.segs[len(old):]
	for _, seg := range old {
		if err := d.trail.Remove(seg.seq); err != nil {
			return err
		}
	}
	d.cache.clear()
	return nil
}

// blockKeysAt loads one block's keys, via the cache.
func (d *Disk) blockKeysAt(seg *diskSegment, bi int) ([]uint64, error) {
	meta := seg.blocks[bi]
	if keys, ok := d.cache.get(seg.path, meta.off); ok {
		return keys, nil
	}
	f, err := os.Open(seg.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	payload := make([]byte, meta.plen)
	if _, err := f.ReadAt(payload, int64(meta.off)); err != nil {
		return nil, fmt.Errorf("store: reading block of %s: %w", filepath.Base(seg.path), err)
	}
	var prevMax uint64
	if bi > 0 {
		prevMax = seg.blocks[bi-1].max
	}
	keys, err := decodeBlock(payload, bi, meta, prevMax)
	if err != nil {
		return nil, err
	}
	d.cache.put(seg.path, meta.off, keys)
	return keys, nil
}

// HasEvidence implements Store.
func (d *Disk) HasEvidence(key uint64) (bool, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for i := len(d.segs) - 1; i >= 0; i-- {
		seg := d.segs[i]
		bi := sort.Search(len(seg.blocks), func(j int) bool { return seg.blocks[j].max >= key })
		if bi == len(seg.blocks) || seg.blocks[bi].min > key {
			continue
		}
		keys, err := d.blockKeysAt(seg, bi)
		if err != nil {
			return false, err
		}
		ki := sort.Search(len(keys), func(j int) bool { return keys[j] >= key })
		if ki < len(keys) && keys[ki] == key {
			return true, nil
		}
	}
	return false, nil
}

// segCursor streams one segment's keys within [lo, hi).
type segCursor struct {
	d    *Disk
	seg  *diskSegment
	hi   uint64
	bi   int
	keys []uint64
	ki   int
	cur  uint64
	done bool
}

func (c *segCursor) advance() error {
	for {
		if c.keys != nil && c.ki < len(c.keys) {
			k := c.keys[c.ki]
			c.ki++
			if k >= c.hi {
				c.done = true
				return nil
			}
			c.cur = k
			return nil
		}
		if c.bi >= len(c.seg.blocks) {
			c.done = true
			return nil
		}
		keys, err := c.d.blockKeysAt(c.seg, c.bi)
		if err != nil {
			return err
		}
		c.bi++
		c.keys, c.ki = keys, 0
	}
}

// newSegCursor positions a cursor at the first key >= lo.
func (d *Disk) newSegCursor(seg *diskSegment, lo, hi uint64) (*segCursor, error) {
	c := &segCursor{d: d, seg: seg, hi: hi}
	c.bi = sort.Search(len(seg.blocks), func(j int) bool { return seg.blocks[j].max >= lo })
	if c.bi == len(seg.blocks) {
		c.done = true
		return c, nil
	}
	keys, err := d.blockKeysAt(seg, c.bi)
	if err != nil {
		return nil, err
	}
	c.bi++
	c.keys = keys
	c.ki = sort.Search(len(keys), func(j int) bool { return keys[j] >= lo })
	if err := c.advance(); err != nil {
		return nil, err
	}
	return c, nil
}

// EvidenceRange implements Store: an ascending, deduplicated k-way
// merge across the (typically few, post-compaction one) segments.
func (d *Disk) EvidenceRange(lo, hi uint64, yield func(uint64) bool) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.rangeLocked(lo, hi, yield)
}

func (d *Disk) rangeLocked(lo, hi uint64, yield func(uint64) bool) error {
	cursors := make([]*segCursor, 0, len(d.segs))
	for _, seg := range d.segs {
		c, err := d.newSegCursor(seg, lo, hi)
		if err != nil {
			return err
		}
		if !c.done {
			cursors = append(cursors, c)
		}
	}
	for {
		var best *segCursor
		for _, c := range cursors {
			if c.done {
				continue
			}
			if best == nil || c.cur < best.cur {
				best = c
			}
		}
		if best == nil {
			return nil
		}
		k := best.cur
		for _, c := range cursors {
			for !c.done && c.cur == k {
				if err := c.advance(); err != nil {
					return err
				}
			}
		}
		if !yield(k) {
			return nil
		}
	}
}

// EvidenceLen implements Store (an exact, merged distinct count).
func (d *Disk) EvidenceLen() (int, error) {
	n := 0
	err := d.EvidenceRange(0, ^uint64(0), func(uint64) bool { n++; return true })
	return n, err
}

// blobPath maps a blob to its file, validating both path components.
func (d *Disk) blobPath(kind, name string) (string, error) {
	if err := checkBlobName(kind); err != nil {
		return "", err
	}
	if err := checkBlobName(name); err != nil {
		return "", err
	}
	return filepath.Join(d.trail.Dir, "blob", kind, name), nil
}

// SaveBlob implements Store: the same durable commit as a segment.
func (d *Disk) SaveBlob(kind, name string, data []byte) error {
	path, err := d.blobPath(kind, name)
	if err != nil {
		return err
	}
	return commitFile(d.trail.fs, path, data, true)
}

// OpenBlob implements Store.
func (d *Disk) OpenBlob(kind, name string) ([]byte, error) {
	path, err := d.blobPath(kind, name)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("store: blob %s/%s: %w", kind, name, ErrNotFound)
	}
	return data, err
}

// ListBlobs implements Store.
func (d *Disk) ListBlobs(kind string) ([]string, error) {
	if err := checkBlobName(kind); err != nil {
		return nil, err
	}
	names, err := d.trail.fs.ReadDir(filepath.Join(d.trail.Dir, "blob", kind))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	// The listing is sorted; an orphan of a crashed SaveBlob is not a blob.
	return slices.DeleteFunc(names, func(n string) bool { return strings.HasSuffix(n, ".tmp") }), err
}

// Flush implements Store. Commits are already synchronous (fsync before
// rename), so there is nothing buffered to push.
func (d *Disk) Flush() error { return nil }

// Close implements Store.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	d.cache.clear()
	return nil
}

// blockCache is a tiny FIFO cache of decoded blocks, keyed by
// (segment path, payload offset). Point lookups on a hot range keep
// re-decoding the same block otherwise.
type blockCache struct {
	mu    sync.Mutex
	cap   int
	order []blockKey
	m     map[blockKey][]uint64
}

type blockKey struct {
	path string
	off  int
}

func newBlockCache(capacity int) *blockCache {
	return &blockCache{cap: capacity, m: map[blockKey][]uint64{}}
}

func (c *blockCache) get(path string, off int) ([]uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys, ok := c.m[blockKey{path, off}]
	return keys, ok
}

func (c *blockCache) put(path string, off int, keys []uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := blockKey{path, off}
	if _, dup := c.m[k]; dup {
		return
	}
	if len(c.order) >= c.cap {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.m, oldest)
	}
	c.order = append(c.order, k)
	c.m[k] = keys
}

func (c *blockCache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order = nil
	c.m = map[blockKey][]uint64{}
}
