package serve

import (
	"fmt"
	"sync"

	cem "repro"
	"repro/match"
)

// checkpointer writes committed states into the store off the commit
// path: the committer publishes a state and hands it over, and the state
// blob is written while the next batch runs. At most one save is in
// flight, and one slot holds the state waiting for it; a newer committed
// state replaces the one in the slot, so under load the intermediate
// states are never written. States arrive in seq order and each save
// takes the newest, so the seqs it saves only ever rise.
//
// Every state the committer hands over is past its journal entry (Apply
// publishes only after the journal write, Recover replays the journal),
// so a blob at seq N still covers exactly the first N journaled batches,
// and a restart reopens N and replays the rest. A failed save loses
// nothing: the batch is journaled and published, and the next save writes
// a newer state.
//
// The save goroutine runs while the slot holds a state and exits when it
// is empty, so a Committer needs no Close.
type checkpointer struct {
	store   match.Store
	metrics *Metrics
	logf    func(format string, args ...any)

	mu      sync.Mutex
	idle    sync.Cond  // broadcast when the save goroutine exits
	pending *Committed // newest committed state not yet being saved
	running bool       // the save goroutine is live
	saved   int        // seq of the state blob the store holds
	err     error      // the last save's error, nil when it landed
}

func newCheckpointer(s match.Store, m *Metrics, logf func(format string, args ...any)) *checkpointer {
	k := &checkpointer{store: s, metrics: m, logf: logf}
	k.idle.L = &k.mu
	return k
}

// offer puts state in the slot, replacing any older state waiting there,
// and starts the save goroutine if none is running.
func (k *checkpointer) offer(state *Committed) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.pending = state
	if !k.running {
		k.running = true
		go k.run()
	}
}

// run saves the slot's state until the slot stays empty.
func (k *checkpointer) run() {
	k.mu.Lock()
	for k.pending != nil {
		state, kept := k.pending, k.saved
		k.pending = nil
		k.mu.Unlock()
		err := cem.SaveState(k.store, state.Result, state.Seq)
		if err != nil {
			if k.metrics != nil {
				k.metrics.StoreSaveErrors.Inc()
			}
			if k.logf != nil {
				k.logf("checkpoint: saving the state at seq %d failed, the store keeps seq %d: %v", state.Seq, kept, err)
			}
		}
		k.mu.Lock()
		k.err = err
		if err == nil {
			k.saved = state.Seq
		}
	}
	k.running = false
	k.idle.Broadcast()
	k.mu.Unlock()
}

// flush waits until no save is running or waiting, and returns the last
// save's error.
func (k *checkpointer) flush() error {
	k.mu.Lock()
	defer k.mu.Unlock()
	for k.running {
		k.idle.Wait()
	}
	if k.err != nil {
		return fmt.Errorf("serve: checkpoint: %w", k.err)
	}
	return nil
}

// savedSeq returns the seq of the state blob the store holds.
func (k *checkpointer) savedSeq() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.saved
}

// reopened records that the store already holds the state at seq.
func (k *checkpointer) reopened(seq int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.saved = seq
}
