package match

import "repro/internal/store"

// Storage-layer aliases. Third-party Store implementations are written
// against these (plus cem.RegisterStore) and never import repro/internal
// — the same arrangement the Matcher and Backend aliases above provide
// for matchers and executors.

// Store is the engine's persistence boundary for completed state: named
// blobs (run snapshots, blocking postings) that cem.SaveState writes and
// cem.Pipeline.Reopen reads, plus an evidence-set API (packed pair keys)
// the engine itself does not write. Register implementations with
// cem.RegisterStore; the built-ins are "mem" (process maps) and "disk"
// (files committed through one durable protocol).
type Store = store.Store

// StoreOptions is the resolved open-time configuration a StoreFactory
// receives.
type StoreOptions = store.Options

// StoreOption mutates StoreOptions — the functional options accepted by
// cem.OpenStore (cem.WithStoreDir and friends build them).
type StoreOption = store.Option

// StoreFactory opens a Store from resolved options.
type StoreFactory = store.Factory

// ErrBlobNotFound reports a Store blob lookup that matched nothing.
var ErrBlobNotFound = store.ErrNotFound

// Blob kinds the engine itself uses (stores treat kinds as opaque
// namespaces).
const (
	KindSnapshot = store.KindSnapshot
	KindPostings = store.KindPostings
)
