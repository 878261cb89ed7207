package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"repro/internal/wire"
)

// Disk is the on-disk store: blobs under blob/<kind>/<name>, and the
// evidence set in memory, persisted as a durable Trail of entries
// (evidence-NNNNNNNN.delta) under the root directory. Each PutEvidence
// batch is one entry, a binary wire.Delta whose Round is the entry's
// sequence number; once more than compactEvery entries accumulate, a put
// commits the whole set as the next entry and removes the older ones.
// Blobs commit through the same function, so a crash can never leave a
// torn file under a committed name and a returned put survives a power
// cut; what a crash DURING a commit leaves behind, open repairs by the
// trail's rules (orphans removed, a torn trailing entry quarantined,
// damage anywhere else a hard error). The ev-*.seg files of older builds
// are not the trail's own: they are never read, renamed or removed.
type Disk struct {
	trail Trail

	mu     sync.RWMutex
	keys   []uint64 // the evidence set, ascending and distinct; replaced, never written in place
	seqs   []int    // the trail's entries, ascending
	closed bool
}

const (
	evidenceFormat = "evidence-%08d.delta"
	// compactEvery is the entry count past which a put compacts.
	compactEvery = 8
)

// OpenDisk opens (creating if needed) a disk store rooted at o.Dir.
func OpenDisk(o Options) (*Disk, error) { return openDisk(o, osFS{}) }

func openDisk(o Options, sys fsys) (*Disk, error) {
	if o.Dir == "" {
		return nil, fmt.Errorf("store: the disk store needs a directory (WithDir)")
	}
	if err := sys.MkdirAll(o.Dir); err != nil {
		return nil, fmt.Errorf("store: disk dir: %w", err)
	}
	d := &Disk{trail: Trail{Dir: o.Dir, Format: evidenceFormat, Durable: true, Logf: o.Logf, fs: sys}}
	if err := d.trail.Scan(d.load); err != nil {
		return nil, err
	}
	return d, nil
}

// load verifies one evidence entry and merges its keys into the set.
func (d *Disk) load(seq int, data []byte) error {
	delta, err := wire.UnmarshalDelta(data)
	if err != nil {
		return err
	}
	if delta.Round != seq {
		return fmt.Errorf("store: evidence entry carries sequence number %d", delta.Round)
	}
	d.keys = union(d.keys, delta.Keys)
	d.seqs = append(d.seqs, seq)
	return nil
}

// Name implements Store.
func (d *Disk) Name() string { return "disk" }

// Dir returns the store's root directory.
func (d *Disk) Dir() string { return d.trail.Dir }

// PutEvidence implements Store: the batch becomes the trail's next entry,
// committed atomically; crossing the compaction threshold commits the
// whole set as one entry.
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
	if err := d.commit(keys); err != nil {
		return err
	}
	d.keys = union(d.keys, keys)
	if len(d.seqs) > compactEvery {
		return d.compact()
	}
	return nil
}

// commit writes keys as the trail's next entry. Caller holds mu.
func (d *Disk) commit(keys []uint64) error {
	seq := 0
	if n := len(d.seqs); n > 0 {
		seq = d.seqs[n-1] + 1
	}
	data, err := (&wire.Delta{Round: seq, Keys: keys}).Marshal(wire.Binary)
	if err != nil {
		return fmt.Errorf("store: encoding evidence: %w", err)
	}
	if err := d.trail.Commit(seq, data); err != nil {
		return err
	}
	d.seqs = append(d.seqs, seq)
	return nil
}

// compact commits the whole set as one entry and removes the others.
// Crash safety needs no journal: the merged entry commits under a NEW
// sequence number before any older one is removed, and evidence has set
// semantics, so a crash at any point leaves a directory whose union is
// unchanged. Caller holds mu.
func (d *Disk) compact() error {
	old := d.seqs
	if err := d.commit(d.keys); err != nil {
		return err
	}
	d.seqs = d.seqs[len(old):]
	for _, seq := range old {
		if err := d.trail.Remove(seq); err != nil {
			return err
		}
	}
	return nil
}

// union returns the ascending, distinct union of two ascending, distinct
// key slices in a new slice.
func union(a, b []uint64) []uint64 {
	out := make([]uint64, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			out, a = append(out, a[0]), a[1:]
		case b[0] < a[0]:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// evidence returns the current set. A put replaces the slice and never
// writes into it, so the caller reads it without the lock.
func (d *Disk) evidence() []uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.keys
}

// HasEvidence implements Store.
func (d *Disk) HasEvidence(key uint64) (bool, error) {
	_, ok := slices.BinarySearch(d.evidence(), key)
	return ok, nil
}

// EvidenceRange implements Store.
func (d *Disk) EvidenceRange(lo, hi uint64, yield func(uint64) bool) error {
	keys := d.evidence()
	i, _ := slices.BinarySearch(keys, lo)
	for _, k := range keys[i:] {
		if k >= hi || !yield(k) {
			return nil
		}
	}
	return nil
}

// EvidenceLen implements Store.
func (d *Disk) EvidenceLen() (int, error) { return len(d.evidence()), nil }

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

// SaveBlob implements Store: the same durable commit as an evidence entry.
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
	return nil
}
