// Package store is the engine's storage abstraction: the state of a
// completed run — the run snapshot followed by the blocking index (canopy
// postings), one blob — goes through a Store, so the same pipeline can
// keep it in process maps (the "mem" store) or on disk (the "disk" store,
// for services that reopen state on restart instead of replaying
// trails). A Store also offers an evidence-set API (append-only segment
// files of difference-encoded sorted PairKey batches over the
// internal/wire codec on disk); the engine writes no evidence into it.
//
// The package also owns the one durability protocol, Trail (trail.go):
// the disk store's segments and blobs, the service journal and the
// engine's checkpoint trail are committed and recovered through it, and
// nothing else in the module renames, fsyncs or quarantines a file.
//
// Open builds a store by name, "mem" or "disk"; any other implementation
// of Store (aliased by the public match package as match.Store) is handed
// to the engine as a value. Keys are plain packed pair keys (uint64, high
// half A, low half B, A < B) — the same representation
// internal/wire speaks — so the package imports nothing of the engine
// but internal/wire, and the engine (internal/core) imports it.
package store

import (
	"errors"
	"fmt"
)

// ErrNotFound reports a blob lookup that matched nothing.
var ErrNotFound = errors.New("store: not found")

// KindSnapshot is the blob kind the engine uses. Stores treat kinds as
// opaque namespaces; the constant only fixes the convention shared by the
// snapshot plumbing and the service. Its blobs are state blobs: a
// wire.Checkpoint stamped by the cem snapshot plumbing, followed by the
// serialized blocking state (the canopy names, rows, candidate lists and
// cover) when the run was a streaming one. An older build kept the
// blocking state in a second blob of kind "postings", which nothing reads.
const KindSnapshot = "snapshot"

// Store is the persistence boundary of one matching state: named blobs
// (the engine writes one, its state blob) and an evidence set of packed
// pair keys. Implementations must be safe for concurrent readers with one
// writer.
type Store interface {
	// Name returns the store's name ("mem", "disk", or an
	// implementation's own).
	Name() string

	// PutEvidence appends one batch of evidence keys. Keys must be
	// strictly increasing valid pair keys (a < b, b < 2^31 — the
	// internal/wire key contract). Batches may overlap previously put
	// batches; evidence has set semantics.
	PutEvidence(keys []uint64) error
	// HasEvidence reports whether the key is in the evidence set.
	HasEvidence(key uint64) (bool, error)
	// EvidenceRange yields the evidence keys in [lo, hi) in ascending
	// order, deduplicated, until yield returns false. The full set is
	// EvidenceRange(0, ^uint64(0), ...).
	EvidenceRange(lo, hi uint64, yield func(uint64) bool) error
	// EvidenceLen returns the number of distinct evidence keys.
	EvidenceLen() (int, error)

	// SaveBlob durably replaces the named blob (KindSnapshot or any
	// caller-chosen namespace); the replacement is the commit point of
	// the state it holds. Names are restricted to [A-Za-z0-9._-]+.
	SaveBlob(kind, name string, data []byte) error
	// OpenBlob returns the named blob, or ErrNotFound.
	OpenBlob(kind, name string) ([]byte, error)
	// ListBlobs returns the sorted names stored under kind.
	ListBlobs(kind string) ([]string, error)

	// Flush forces buffered state to durable storage (a no-op for
	// memory stores).
	Flush() error
	// Close releases the store's resources. A closed store must not be
	// used again.
	Close() error
}

// Options configures a store at open time. Implementations ignore
// fields they have no use for (the memory store ignores all of them).
type Options struct {
	// Dir is the root directory of a disk-backed store (required by
	// "disk", ignored by "mem").
	Dir string
	// CompactEvery bounds the evidence segment count: once more than
	// this many segment files accumulate, a Put triggers compaction
	// into a single merged segment. 0 means the implementation default.
	CompactEvery int
	// BlockKeys bounds the keys per difference-encoded block inside a
	// segment (the unit of decode-on-demand). 0 means the default.
	BlockKeys int
	// Logf, when set, receives recovery events (e.g. quarantined
	// segments). Nil is silent.
	Logf func(format string, args ...any)
}

// Option mutates Options — the functional-option form the public API
// re-exports as cem.StoreOption.
type Option func(*Options)

// WithDir roots a disk-backed store at dir.
func WithDir(dir string) Option { return func(o *Options) { o.Dir = dir } }

// WithCompactEvery sets the segment-count compaction threshold.
func WithCompactEvery(n int) Option { return func(o *Options) { o.CompactEvery = n } }

// WithBlockKeys sets the keys-per-block bound of new segments.
func WithBlockKeys(n int) Option { return func(o *Options) { o.BlockKeys = n } }

// WithLog installs a logger for store recovery events.
func WithLog(logf func(format string, args ...any)) Option {
	return func(o *Options) { o.Logf = logf }
}

// Open builds the named store — "mem" or "disk" — with the given
// options; any other name is refused.
func Open(name string, opts ...Option) (Store, error) {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	switch name {
	case "mem":
		return NewMem(), nil
	case "disk":
		return OpenDisk(o)
	}
	return nil, fmt.Errorf("store: unknown store %q (want mem or disk)", name)
}

// Keys collects the full evidence set of a store as a sorted slice —
// the read side of the snapshot plumbing.
func Keys(s Store) ([]uint64, error) {
	n, err := s.EvidenceLen()
	if err != nil {
		return nil, err
	}
	keys := make([]uint64, 0, n)
	err = s.EvidenceRange(0, ^uint64(0), func(k uint64) bool {
		keys = append(keys, k)
		return true
	})
	if err != nil {
		return nil, err
	}
	return keys, nil
}
