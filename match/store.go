package match

import "repro/internal/store"

// Storage-layer aliases. Third-party Store implementations are written
// against these and never import repro/internal — the same arrangement the
// Matcher and Backend aliases above provide for matchers and executors.

// Store is the engine's persistence boundary for completed state: named
// blobs — cem.SaveState writes one per commit, the run snapshot followed
// by the blocking postings, and cem.Pipeline.Reopen reads it back — plus
// an evidence-set API (packed pair keys) the engine itself does not
// write. cem.OpenStore opens the built-ins, "mem" (process maps) and
// "disk" (files committed through one durable protocol); SaveState and
// Reopen take any implementation as a value.
type Store = store.Store

// StoreOption configures a built-in store at open time — the functional
// options accepted by cem.OpenStore (cem.WithStoreDir and friends build
// them).
type StoreOption = store.Option

// ErrBlobNotFound reports a Store blob lookup that matched nothing.
var ErrBlobNotFound = store.ErrNotFound

// KindSnapshot is the blob kind of the state blob the engine writes
// (stores treat kinds as opaque namespaces).
const KindSnapshot = store.KindSnapshot
