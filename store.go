package cem

import (
	"repro/internal/store"
	"repro/match"
)

// Storage backends. A Store is where a completed run's state lives: the
// snapshot and blocking-postings blobs SaveState writes and
// Pipeline.Reopen restarts from, so a restarted service reopens its state
// instead of replaying work. The "mem" store keeps the blobs in process
// maps; the "disk" store commits them to files. Open one with OpenStore;
// register third-party implementations with RegisterStore.

// RegisterStore makes a storage backend available under name to
// OpenStore and serve.Config.Store. It panics if name is empty, factory
// is nil, or name is taken (call it from an init function, like
// RegisterMatcher).
func RegisterStore(name string, factory match.StoreFactory) {
	store.Register(name, factory)
}

// Stores returns the registered storage backend names, sorted.
func Stores() []string { return store.Names() }

// OpenStore opens the named storage backend directly — for inspecting
// state outside a run, or for handing a ready store to SaveState and
// Pipeline.Reopen. The caller owns Close.
func OpenStore(name string, opts ...match.StoreOption) (match.Store, error) {
	return store.Open(name, opts...)
}

// StoreOption configures a store at open time (alias of
// match.StoreOption, itself the internal functional option).
type StoreOption = match.StoreOption

// WithStoreDir roots a disk-backed store at dir. Required by "disk";
// ignored by "mem".
func WithStoreDir(dir string) StoreOption { return store.WithDir(dir) }

// WithStoreCompactEvery sets how many evidence segment files may
// accumulate before a put compacts them into one (disk store; 0 means
// the default).
func WithStoreCompactEvery(n int) StoreOption { return store.WithCompactEvery(n) }

// WithStoreBlockKeys bounds the keys per difference-encoded block in
// new segments (disk store; 0 means the default).
func WithStoreBlockKeys(n int) StoreOption { return store.WithBlockKeys(n) }

// WithStoreLog installs a logger for store recovery events (e.g. a
// quarantined torn segment).
func WithStoreLog(logf func(format string, args ...any)) StoreOption {
	return store.WithLog(logf)
}
