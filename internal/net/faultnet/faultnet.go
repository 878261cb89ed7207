// Package faultnet is a deterministic fault injector for the
// sharded backend's transport. It wraps both ends of a worker stream and
// perturbs whole frames — drop, delay, duplicate, truncate-and-tear —
// plus a kill-worker-at-round-R hook, all driven by a seeded RNG so a
// fault schedule is reproducible. Only data frames (Assign, Batch) are
// faulted: handshakes always succeed and heartbeats pass through,
// so the RNG stream advances with protocol progress, not with timing.
//
// The harness exploits a transport guarantee: wire.WriteFrame emits
// each frame as a single Write call, so a Write intercepted here is
// exactly one frame and header sniffing is enough to classify it.
package faultnet

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	emnet "repro/internal/net"
	"repro/internal/wire"
)

// Plan is a seeded fault schedule. Rates are per data frame in [0,1].
type Plan struct {
	Seed      int64
	DropRate  float64 // frame vanishes
	DupRate   float64 // frame delivered twice
	DelayRate float64 // frame delayed up to MaxDelay
	TruncRate float64 // frame cut mid-bytes and the stream torn
	MaxDelay  time.Duration

	// KillAtRound cuts a worker's connection right after the Assign for
	// the given round is delivered: the worker starts the round's work
	// and then finds its coordinator gone — the SIGKILL-between-
	// heartbeats shape. Fires once per worker.
	KillAtRound map[int]int

	// Permadead refuses respawns of killed workers, forcing their
	// partitions onto the survivors (otherwise a respawn gets a fresh
	// conn and a full evidence sync).
	Permadead bool
}

// Injector applies one Plan across a run's connections.
type Injector struct {
	plan Plan

	mu     sync.Mutex
	rngs   map[int]*rand.Rand
	killed map[int]bool
}

// New builds an injector for the plan.
func New(plan Plan) *Injector {
	if plan.MaxDelay <= 0 {
		plan.MaxDelay = 2 * time.Millisecond
	}
	return &Injector{plan: plan, rngs: map[int]*rand.Rand{}, killed: map[int]bool{}}
}

// Killed reports whether the worker's kill hook has fired.
func (in *Injector) Killed(worker int) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.killed[worker]
}

// Spawner wraps a base spawner: respawns of permadead workers are
// refused, and every coordinator-side stream is fault-wrapped.
func (in *Injector) Spawner(base emnet.Spawner) emnet.Spawner {
	return func(ctx context.Context, worker int) (io.ReadWriteCloser, error) {
		if in.plan.Permadead && in.Killed(worker) {
			return nil, fmt.Errorf("faultnet: worker %d was killed and stays dead", worker)
		}
		rw, err := base(ctx, worker)
		if err != nil {
			return nil, err
		}
		return in.WrapCoordinator(worker, rw), nil
	}
}

// WrapCoordinator wraps the coordinator's end of a worker stream: its
// writes are the coordinator→worker frames (Assign), where the kill
// hook triggers.
func (in *Injector) WrapCoordinator(worker int, rw io.ReadWriteCloser) io.ReadWriteCloser {
	return &faultConn{in: in, worker: worker, rw: rw, killSide: true}
}

// WrapWorker wraps the worker's end (via WorkerOptions.Wrap): its
// writes are the worker→coordinator frames (Batch).
func (in *Injector) WrapWorker(worker int, rw io.ReadWriteCloser) io.ReadWriteCloser {
	return &faultConn{in: in, worker: worker, rw: rw}
}

// roll draws the worker's next fault decision; one locked draw keeps
// the schedule deterministic per worker regardless of goroutine
// interleaving across its two directions.
func (in *Injector) roll(worker int) (drop, dup, delay, trunc bool, delayFor time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	rng := in.rngs[worker]
	if rng == nil {
		rng = rand.New(rand.NewSource(in.plan.Seed + int64(worker)*7919))
		in.rngs[worker] = rng
	}
	drop = rng.Float64() < in.plan.DropRate
	dup = rng.Float64() < in.plan.DupRate
	delay = rng.Float64() < in.plan.DelayRate
	trunc = rng.Float64() < in.plan.TruncRate
	delayFor = time.Duration(rng.Int63n(int64(in.plan.MaxDelay)))
	return
}

// shouldKill marks-and-reports the worker's one-shot kill for a round.
func (in *Injector) shouldKill(worker, round int) bool {
	at, ok := in.plan.KillAtRound[worker]
	if !ok || at != round {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.killed[worker] {
		return false
	}
	in.killed[worker] = true
	return true
}

// faultConn intercepts whole-frame writes on one direction of a worker
// stream. Reads pass through untouched (the peer's wrapper faults that
// direction) — until the kill hook fires, after which nothing the dead
// worker says is heard.
type faultConn struct {
	in       *Injector
	worker   int
	rw       io.ReadWriteCloser
	killSide bool // coordinator side: Assign frames trigger the kill hook
	dead     atomic.Bool
}

func (f *faultConn) Read(p []byte) (int, error) {
	n, err := f.rw.Read(p)
	if err == nil && f.dead.Load() {
		// The worker was killed after this data was in flight; a dead
		// process's output never reaches the coordinator.
		return 0, fmt.Errorf("faultnet: worker %d is dead", f.worker)
	}
	return n, err
}

func (f *faultConn) Close() error { return f.rw.Close() }

// frameType sniffs a whole-frame write; ok is false for anything that
// is not a single well-formed frame (passed through untouched).
func frameType(b []byte) (byte, bool) {
	if len(b) < 10 || string(b[:4]) != "CEMF" {
		return 0, false
	}
	return b[5], true
}

func (f *faultConn) Write(b []byte) (int, error) {
	ft, ok := frameType(b)
	if !ok || (ft != wire.FrameAssign && ft != wire.FrameBatch) {
		return f.rw.Write(b) // handshake, heartbeat, ack: never faulted
	}

	// Kill hook: deliver the round's Assign, then cut the stream — the
	// worker starts the round and loses its coordinator mid-flight.
	// The dead flag is raised before the Assign is forwarded, so even a
	// worker fast enough to answer before the Close lands is not heard:
	// the kill deterministically forces a reassignment.
	if f.killSide && ft == wire.FrameAssign {
		if a, err := wire.UnmarshalAssign(b[10:]); err == nil && f.in.shouldKill(f.worker, a.Round) {
			f.dead.Store(true)
			n, err := f.rw.Write(b)
			f.rw.Close()
			return n, err
		}
	}

	drop, dup, delay, trunc, delayFor := f.in.roll(f.worker)
	switch {
	case trunc:
		// Tear the stream mid-frame: the peer reads ErrTruncated, the
		// sender's next write fails.
		f.rw.Write(b[:len(b)/2])
		f.rw.Close()
		return 0, fmt.Errorf("faultnet: worker %d stream torn mid-frame", f.worker)
	case drop:
		return len(b), nil // swallowed whole
	}
	if delay {
		time.Sleep(delayFor)
	}
	n, err := f.rw.Write(b)
	if err == nil && dup {
		f.rw.Write(b) // duplicate delivery; dedup is the receiver's job
	}
	return n, err
}
