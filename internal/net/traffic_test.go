package net_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
	"testing"

	cem "repro"
	"repro/internal/core"
	emnet "repro/internal/net"
	"repro/internal/testmodel"
	"repro/internal/wire"
)

// shipLog watches the data frames of a fault-free sharded run: the
// catch-up keys each worker's stream carries to it — the worker's replica,
// rebuilt — and the batches the worker sends back. Every frame is one
// Write (see Conn), so a wrapper sees whole frames.
type shipLog struct {
	t   *testing.T
	cfg core.Config

	mu       sync.Mutex
	replicas map[int]core.PairSet
	// shipped counts the match keys the batches listed; unfiltered the
	// match sets the jobs computed, which a batch listed whole before it
	// dropped what the replica held.
	shipped, unfiltered int
}

func newShipLog(t *testing.T, cfg core.Config) *shipLog {
	return &shipLog{t: t, cfg: cfg, replicas: map[int]core.PairSet{}}
}

// backend is a k-worker sharded backend whose streams report to the log.
func (l *shipLog) backend(scheme string, k int) *emnet.Backend {
	coordinator := func(w int, rw io.ReadWriteCloser) io.ReadWriteCloser { return &frameTap{rw, w, l.assign} }
	worker := func(w int, rw io.ReadWriteCloser) io.ReadWriteCloser { return &frameTap{rw, w, l.batch} }
	return &emnet.Backend{Workers: k, Opts: emnet.Options{
		Wrap:  coordinator,
		Spawn: emnet.LocalSpawner(l.cfg, scheme, emnet.WorkerOptions{Wrap: worker}),
	}}
}

// frameTap hands every frame written to its stream to seen.
type frameTap struct {
	io.ReadWriteCloser
	worker int
	seen   func(worker int, ft byte, payload []byte)
}

func (f *frameTap) Write(b []byte) (int, error) {
	if ft, payload, err := wire.ReadFrame(bytes.NewReader(b)); err == nil {
		f.seen(f.worker, ft, payload)
	}
	return f.ReadWriteCloser.Write(b)
}

// assign applies an assignment's catch-up to the worker's replica, as the
// worker does.
func (l *shipLog) assign(worker int, ft byte, payload []byte) {
	if ft != wire.FrameAssign {
		return
	}
	a, err := wire.UnmarshalAssign(payload)
	if err != nil {
		l.t.Errorf("worker %d: undecodable assign: %v", worker, err)
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if a.FromRound == 0 || l.replicas[worker] == nil {
		l.replicas[worker] = core.NewPairSet()
	}
	for _, k := range a.Keys {
		l.replicas[worker].AddKey(core.PairKey(k))
	}
}

// batch checks a worker's batch against the replica its assignment ran
// against: each job lists exactly the matches of its neighborhood — the
// matcher's, given that replica — that the replica lacks.
func (l *shipLog) batch(worker int, ft byte, payload []byte) {
	if ft != wire.FrameBatch {
		return
	}
	b, err := wire.UnmarshalShardBatch(payload)
	if err != nil {
		l.t.Errorf("worker %d: undecodable batch: %v", worker, err)
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	replica := l.replicas[worker]
	for _, j := range b.Jobs {
		l.shipped += len(j.Matches)
		for _, k := range j.Matches {
			if replica.HasKey(core.PairKey(k)) {
				l.t.Errorf("worker %d round %d neighborhood %d: ships %v, which its replica holds",
					worker, b.Round, j.ID, core.PairKey(k).Pair())
			}
		}
		if j.Skipped {
			continue
		}
		full := l.cfg.Matcher.Match(l.cfg.Cover.Sets[j.ID], replica, l.cfg.Negative)
		l.unfiltered += full.Len()
		var want []uint64
		for _, k := range full.SortedKeys() {
			if !replica.HasKey(k) {
				want = append(want, uint64(k))
			}
		}
		if !slices.Equal(j.Matches, want) {
			l.t.Errorf("worker %d round %d neighborhood %d: ships %d keys, want the %d of %d matches its replica lacks",
				worker, b.Round, j.ID, len(j.Matches), len(want), full.Len())
		}
	}
}

// TestNetShipsOnlyNewMatches: a worker's batch lists only the matches its
// replica lacked — what M+ may not hold yet — and still lands on the pool's
// run. On the HEPTH-like fixture (the MLN, so the dense path) the run's
// shipped keys are pinned beside the match sets the jobs computed, which
// the batches carried whole before; random models cover the pair path.
func TestNetShipsOnlyNewMatches(t *testing.T) {
	exp, err := cem.New(cem.NewDataset(cem.HEPTH, 0.25, 42))
	if err != nil {
		t.Fatal(err)
	}
	hepth := core.Config{Cover: exp.Cover, Matcher: exp.MLN, Relation: exp.Dataset.Coauthor()}
	// Shipped and unfiltered match keys per scheme, whatever the worker
	// count: every partition runs against the round-start snapshot.
	pinned := map[string][2]int{"SMP": {3346, 11351}, "MMP": {3326, 7974}}
	shipped, unfiltered := 0, 0
	for _, scheme := range []string{"SMP", "MMP"} {
		pool := poolRef(t, hepth, scheme)
		for _, k := range []int{2, 3} {
			label := fmt.Sprintf("%s k=%d", scheme, k)
			log := newShipLog(t, hepth)
			assertSameRun(t, "hepth "+label, runOn(t, hepth, scheme, log.backend(scheme, k)), pool)
			if got, want := [2]int{log.shipped, log.unfiltered}, pinned[scheme]; got != want {
				t.Errorf("hepth %s: shipped %d of %d match keys, pinned %d of %d", label, got[0], got[1], want[0], want[1])
			}
			shipped += log.shipped
			unfiltered += log.unfiltered
		}
	}
	if 2*shipped > unfiltered {
		t.Errorf("hepth: shipped %d of %d match keys, more than half", shipped, unfiltered)
	}

	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 4; trial++ {
		m, cover := testmodel.Random(rng)
		cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
		for _, scheme := range []string{"SMP", "MMP"} {
			pool := poolRef(t, cfg, scheme)
			for _, k := range []int{2, 3} {
				log := newShipLog(t, cfg)
				net := runOn(t, cfg, scheme, log.backend(scheme, k))
				assertSameRun(t, fmt.Sprintf("random trial %d %s k=%d", trial, scheme, k), net, pool)
			}
		}
	}
}
