package cem

import (
	"fmt"
	"sync"

	"repro/internal/store"
	"repro/match"
)

// Storage backends. A Store is where a run's state lives: the
// accumulated evidence set plus named blobs (run snapshots, blocking
// postings). The default "mem" store keeps everything in process maps —
// byte-identical behavior to the storeless engine — while the "disk"
// store spills evidence into append-only segment files so corpus state
// stays out of RSS and a restarted service reopens its state instead of
// replaying work. Select one per Runner/Pipeline with WithStore;
// register third-party implementations with RegisterStore.

// RegisterStore makes a storage backend available under name to
// WithStore, OpenStore, and the -store flags of emmatch/emserve. It
// panics if name is empty, factory is nil, or name is taken (call it
// from an init function, like RegisterMatcher).
func RegisterStore(name string, factory match.StoreFactory) {
	store.Register(name, factory)
}

// Stores returns the registered storage backend names, sorted.
func Stores() []string { return store.Names() }

// OpenStore opens the named storage backend directly — for inspecting
// state outside a run, or for handing a ready store to WithOpenedStore
// or Pipeline.Reopen. The caller owns Close.
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

// storeHandle lazily opens a named store exactly once, however many
// Runners the option is applied to — a Pipeline rebuilds its Runner
// every run, and all of them must share the one store.
type storeHandle struct {
	name string
	opts []match.StoreOption

	once sync.Once
	s    match.Store
	err  error
}

func (h *storeHandle) open() (match.Store, error) {
	h.once.Do(func() {
		h.s, h.err = store.Open(h.name, h.opts...)
		if h.err != nil {
			h.err = fmt.Errorf("cem: opening store %q: %w", h.name, h.err)
		}
	})
	return h.s, h.err
}

// WithStore keeps the run's evidence in the named storage backend
// ("mem", "disk", or anything passed to RegisterStore). The store is
// opened lazily on first use and shared by every run of the Runner (or
// Pipeline) the option is applied to; after each completed round it
// holds exactly the run's accumulated evidence (it is mirrored at round
// boundaries). FULL and UB have no round structure and leave the store
// untouched.
//
// The caller owns the store's lifetime end of things only insofar as the
// process exit: WithStore never closes it. To manage Close explicitly,
// open with OpenStore and use WithOpenedStore.
func WithStore(name string, opts ...StoreOption) RunnerOption {
	h := &storeHandle{name: name, opts: opts}
	return func(r *Runner) { r.storeh = h }
}

// WithOpenedStore is WithStore for a store the caller opened (and will
// close) itself.
func WithOpenedStore(s match.Store) RunnerOption {
	return func(r *Runner) { r.store = s }
}

// evidenceStore resolves the runner's configured store, opening a lazy
// WithStore handle on first use. Returns (nil, nil) when no store is
// configured.
func (r *Runner) evidenceStore() (match.Store, error) {
	if r.store != nil {
		return r.store, nil
	}
	if r.storeh != nil {
		return r.storeh.open()
	}
	return nil, nil
}

// Store returns the runner's store, opening it if WithStore was used
// and it has not been opened yet. Returns nil when the runner has none.
func (r *Runner) Store() (match.Store, error) { return r.evidenceStore() }
