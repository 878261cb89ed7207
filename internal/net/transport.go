package net

import (
	"context"
	"fmt"
	"io"
	stdnet "net"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/wire"
)

// Conn is a framed connection: one peer of the sharded protocol.
// Sends are serialized by a mutex so concurrent senders (the worker's
// heartbeat goroutine alongside its batch sends) emit whole frames;
// each frame is written with a single underlying Write call, so
// frame-granular middlewares (faultnet) see one frame per Write. Recv
// must be called from a single goroutine.
type Conn struct {
	rw io.ReadWriteCloser
	mu sync.Mutex
}

// NewConn frames an underlying byte stream.
func NewConn(rw io.ReadWriteCloser) *Conn { return &Conn{rw: rw} }

// Send writes one frame.
func (c *Conn) Send(frameType byte, payload []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return wire.WriteFrame(c.rw, frameType, payload)
}

// Recv reads one frame. io.EOF means the peer closed cleanly at a
// frame boundary; wire.ErrTruncated means the stream tore mid-frame.
func (c *Conn) Recv() (byte, []byte, error) {
	return wire.ReadFrame(c.rw)
}

// Close closes the underlying stream, failing any in-flight Send/Recv.
func (c *Conn) Close() error { return c.rw.Close() }

// Spawner produces the byte stream to a worker slot. The coordinator
// calls it at startup for every slot, and again when it decides to
// respawn a dead slot; returning an error marks the slot failed.
type Spawner func(ctx context.Context, worker int) (io.ReadWriteCloser, error)

// LocalSpawner runs workers as in-process goroutines connected by
// synchronous pipes — the same code path cmd/emworker runs over a
// socket, with every byte still crossing the wire codec. This is the
// default spawner of the sharded backend when no addresses are given,
// and the harness the fault-injection tests drive.
func LocalSpawner(cfg core.Config, scheme string, opts WorkerOptions) Spawner {
	return func(ctx context.Context, worker int) (io.ReadWriteCloser, error) {
		coord, work := stdnet.Pipe()
		var rw io.ReadWriteCloser = work
		if opts.Wrap != nil {
			rw = opts.Wrap(worker, rw)
		}
		go func() {
			// A worker error surfaces coordinator-side as a dead conn;
			// the supervisor reassigns, so the run does not care why.
			_ = ServeConn(ctx, cfg, scheme, rw, opts)
		}()
		return coord, nil
	}
}

// DialSpawner attaches one remote worker per address. An address is
// "unix:/path/to.sock" or a TCP "host:port". A SIGKILLed worker's
// address refuses the redial, so its slot fails permanently and its
// partitions land on the surviving workers.
func DialSpawner(addrs []string) Spawner {
	return func(ctx context.Context, worker int) (io.ReadWriteCloser, error) {
		if worker < 0 || worker >= len(addrs) {
			return nil, fmt.Errorf("net: no address for worker %d", worker)
		}
		network, addr := "tcp", addrs[worker]
		if rest, ok := strings.CutPrefix(addr, "unix:"); ok {
			network, addr = "unix", rest
		}
		var d stdnet.Dialer
		return d.DialContext(ctx, network, addr)
	}
}
