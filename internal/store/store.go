// Package store is the engine's storage abstraction: the state of a
// completed run — the run snapshot, one blob — goes through a Store, so
// the same pipeline can keep it in process maps (the "mem" store) or on
// disk (the "disk" store, for services that reopen state on restart
// instead of replaying trails). A Store also offers an evidence-set API, which the disk store
// keeps in memory and persists as a trail of internal/wire deltas; the
// engine writes no evidence into it.
//
// The package also owns the one durability protocol, Trail (trail.go):
// the disk store's evidence and blobs — a run's one state record among
// them — and the service journal are committed and recovered through it,
// and nothing else in the module renames, fsyncs or quarantines a file.
//
// Open builds a store by name, "mem" or "disk"; any other implementation
// of Store (aliased by the public match package as match.Store) is handed
// to the engine as a value. Keys are plain packed pair keys (uint64, high
// half A, low half B, A < B) — the same representation
// internal/wire speaks — so the package imports nothing of the engine
// but internal/wire, and the engine (internal/core) does not import it:
// a run saves its state through a plain function (core.Config.Save).
package store

import (
	"errors"
	"fmt"
)

// ErrNotFound reports a blob lookup that matched nothing.
var ErrNotFound = errors.New("store: not found")

// KindSnapshot is the blob kind the engine uses. Stores treat kinds as
// opaque namespaces; the constant only fixes the convention shared by the
// snapshot plumbing and the service. Its blobs are state blobs: one
// wire.Checkpoint stamped by the cem snapshot plumbing. Older builds
// appended the serialized blocking index after it, or kept it in a second
// blob of kind "postings"; neither is read.
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
	// Logf, when set, receives recovery events (e.g. a quarantined
	// evidence entry). Nil is silent.
	Logf func(format string, args ...any)
}

// Option mutates Options — the functional-option form the public API
// re-exports as cem.StoreOption.
type Option func(*Options)

// WithDir roots a disk-backed store at dir.
func WithDir(dir string) Option { return func(o *Options) { o.Dir = dir } }

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
