// Package store is the engine's storage abstraction: the state of a
// completed run — the run snapshot and the blocking index (canopy
// postings) — goes through a Store as named blobs, so the same pipeline
// can keep it in process maps (the "mem" store) or on disk (the "disk"
// store, for services that reopen state on restart instead of replaying
// trails). A Store also offers an evidence-set API (append-only segment
// files of difference-encoded sorted PairKey batches over the
// internal/wire codec on disk); the engine writes no evidence into it.
//
// The package also owns the one durability protocol, Trail (trail.go):
// the disk store's segments and blobs, the service journal and the
// engine's checkpoint trail are committed and recovered through it, and
// nothing else in the module renames, fsyncs or quarantines a file.
//
// Stores register by name (database/sql style); third-party
// implementations use the aliases exported by the public match package
// and never import internal packages. Keys are plain packed pair keys
// (uint64, high half A, low half B, A < B) — the same representation
// internal/wire speaks — so the package imports nothing of the engine
// but internal/wire, and the engine (internal/core) imports it.
package store

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrNotFound reports a blob lookup that matched nothing.
var ErrNotFound = errors.New("store: not found")

// Blob kinds used by the engine. Stores treat kinds as opaque
// namespaces; these constants only fix the convention shared by the
// snapshot plumbing and the service.
const (
	// KindSnapshot holds serialized run snapshots (wire.Checkpoint
	// payloads stamped by the cem snapshot plumbing).
	KindSnapshot = "snapshot"
	// KindPostings holds serialized blocking state (the canopy gram
	// table and cached candidate lists).
	KindPostings = "postings"
)

// Store is the persistence boundary of one matching state: named blobs
// (blocking postings, run snapshots) and an evidence set of packed pair
// keys. Implementations must be safe for concurrent readers with one
// writer.
type Store interface {
	// Name returns the registry name the store was opened under.
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

	// SaveBlob durably replaces the named blob (KindSnapshot,
	// KindPostings, or any caller-chosen namespace). Names are
	// restricted to [A-Za-z0-9._-]+.
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

// Factory opens a store from resolved options.
type Factory func(Options) (Store, error)

var (
	regMu     sync.RWMutex
	factories = map[string]Factory{}
)

// Register makes a store implementation available under name. It
// panics if name is empty, factory is nil, or name is already taken —
// registration happens from init functions, where a conflict is a
// programming error (database/sql.Register semantics).
func Register(name string, factory Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if name == "" {
		panic("store: Register with empty name")
	}
	if factory == nil {
		panic("store: Register with nil factory for " + name)
	}
	if _, dup := factories[name]; dup {
		panic("store: Register called twice for " + name)
	}
	factories[name] = factory
}

// Names returns the registered store names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(factories))
	for name := range factories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Open builds the named store with the given options.
func Open(name string, opts ...Option) (Store, error) {
	regMu.RLock()
	factory, ok := factories[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("store: unknown store %q (registered: %v)", name, Names())
	}
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	return factory(o)
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
