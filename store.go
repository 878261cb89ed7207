package cem

import (
	"repro/internal/store"
	"repro/match"
)

// Storage backends. A Store is where a completed run's state lives: the
// state blob (snapshot, then blocking postings) SaveState writes and
// Pipeline.Reopen restarts from, so a restarted service reopens its state
// instead of replaying work. SaveState and Reopen take any match.Store;
// OpenStore opens the two built-ins: "mem" keeps blobs in process maps,
// "disk" commits them to files.

// OpenStore opens the built-in store name, "mem" or "disk" (any other name
// is an error) — for inspecting state outside a run, or for handing a
// ready store to SaveState and Pipeline.Reopen. The caller owns Close.
func OpenStore(name string, opts ...match.StoreOption) (match.Store, error) {
	return store.Open(name, opts...)
}

// StoreOption configures a store at open time (alias of
// match.StoreOption, itself the internal functional option).
type StoreOption = match.StoreOption

// WithStoreDir roots a disk-backed store at dir. Required by "disk";
// ignored by "mem".
func WithStoreDir(dir string) StoreOption { return store.WithDir(dir) }

// WithStoreLog installs a logger for store recovery events (e.g. a
// quarantined torn segment).
func WithStoreLog(logf func(format string, args ...any)) StoreOption {
	return store.WithLog(logf)
}
