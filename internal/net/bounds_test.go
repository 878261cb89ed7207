package net_test

import (
	"bytes"
	"context"
	"io"
	stdnet "net"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	emnet "repro/internal/net"
	"repro/internal/testmodel"
	"repro/internal/wire"
)

// greet dials a worker and completes the handshake of an SMP run over
// cover.
func greet(t *testing.T, addr string, cover *core.Cover) *emnet.Conn {
	t.Helper()
	rw, err := stdnet.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := emnet.NewConn(rw)
	hello := &wire.Hello{Scheme: "SMP", Neighborhoods: cover.Len(), Entities: cover.NumEntities}
	enc, err := hello.Marshal(wire.Binary)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(wire.FrameHello, enc); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := conn.Recv(); err != nil || ft != wire.FrameHelloAck {
		t.Fatalf("handshake: frame %d, %v", ft, err)
	}
	return conn
}

// TestWorkerRefusesOutOfRangeAssign: an assignment naming a neighborhood
// past the worker's cover ends that session with an error — it must not
// crash the worker process — and the worker keeps accepting coordinators.
func TestWorkerRefusesOutOfRangeAssign(t *testing.T) {
	m, cover, _ := testmodel.PaperExample()
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
	l, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	var sessions []string
	var mu sync.Mutex
	served := make(chan error, 1)
	go func() {
		served <- emnet.Serve(ctx, l, cfg, "SMP", emnet.WorkerOptions{Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			sessions = append(sessions, format)
		}})
	}()
	defer func() {
		cancel()
		<-served
	}()

	conn := greet(t, l.Addr().String(), cover)
	a := &wire.Assign{Round: 1, Epoch: 1, IDs: []int32{0, int32(cover.Len() + 5)}}
	enc, err := a.Marshal(wire.Binary)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(wire.FrameAssign, enc); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := conn.Recv(); err == nil {
		t.Fatalf("worker answered an out-of-range assignment with frame %d", ft)
	}
	conn.Close()
	greet(t, l.Addr().String(), cover).Close()
	mu.Lock()
	defer mu.Unlock()
	if !slices.ContainsFunc(sessions, func(f string) bool { return strings.Contains(f, "session ended") }) {
		t.Errorf("the refused session was not logged as ended: %q", sessions)
	}
}

// outOfRangeTap rewrites the first batch a worker sends: its first job
// gains a match whose second entity is past the run's entities — a pair
// the wire decoder accepts.
type outOfRangeTap struct {
	io.ReadWriteCloser
	key  uint64
	once *sync.Once
}

func (f outOfRangeTap) Write(b []byte) (int, error) {
	ft, payload, err := wire.ReadFrame(bytes.NewReader(b))
	if err != nil || ft != wire.FrameBatch {
		return f.ReadWriteCloser.Write(b)
	}
	out := b
	f.once.Do(func() {
		batch, err := wire.UnmarshalShardBatch(payload)
		if err != nil || len(batch.Jobs) == 0 {
			return
		}
		j := &batch.Jobs[0]
		j.Matches = append(j.Matches, f.key)
		slices.Sort(j.Matches)
		enc, err := batch.Marshal(wire.Binary)
		if err != nil {
			return
		}
		out, _ = wire.AppendFrame(nil, wire.FrameBatch, enc)
	})
	if _, err := f.ReadWriteCloser.Write(out); err != nil {
		return 0, err
	}
	return len(b), nil
}

// TestNetFaultOutOfRangeMatch: a batch whose match names an entity the
// run does not have fails the round with an error naming the worker; it
// must not reach the reduce, where it would crash the coordinator.
func TestNetFaultOutOfRangeMatch(t *testing.T) {
	m, cover, _ := testmodel.PaperExample()
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
	key := uint64(core.MakePair(0, core.EntityID(cover.NumEntities+5)).Key())
	once := new(sync.Once)
	tap := func(_ int, rw io.ReadWriteCloser) io.ReadWriteCloser { return outOfRangeTap{rw, key, once} }
	b := &emnet.Backend{Workers: 1, Opts: emnet.Options{
		Spawn: emnet.LocalSpawner(cfg, "SMP", emnet.WorkerOptions{Wrap: tap}),
	}}
	_, err := core.RunBackend(bg, cfg, "SMP", b, core.CheckpointConfig{})
	if err == nil || !strings.Contains(err.Error(), "worker 0") {
		t.Fatalf("a match outside the run's entities gave %v, want an error naming worker 0", err)
	}
}
