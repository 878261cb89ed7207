package net

import (
	"context"
	"errors"
	"fmt"
	"io"
	stdnet "net"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// ServeConn runs one worker over one coordinator connection until the
// coordinator closes it (clean io.EOF returns nil) or the stream
// fails. The worker reconstructs the identical round plan from its own
// configuration — the model is never serialized — under the V− the
// coordinator's Hello carries, which replaces cfg.Negative; the handshake
// fingerprint (scheme, matcher label, cover sizes) refuses a
// coordinator grounded on a different corpus or model.
//
// Protocol, worker side: receive Hello, answer HelloAck; then for each
// Assign, merge the catch-up keys into the private evidence replica
// (bringing it to the round-start snapshot), evaluate the partition's
// neighborhoods in id order — heartbeating while it works — and return
// an epoch-tagged ShardBatch. Catch-up application is idempotent
// (evidence is a monotone set), so duplicated or re-sent assignments
// are harmless; a batch answering a superseded assignment carries a
// stale epoch and is dropped by the coordinator.
func ServeConn(ctx context.Context, cfg core.Config, scheme string, rw io.ReadWriteCloser, opts WorkerOptions) error {
	defer rw.Close()
	conn := NewConn(rw)
	hello, err := workerHandshake(conn, cfg.Cover, scheme, opts)
	if err != nil {
		return err
	}
	worker, heartbeat := hello.Worker, time.Duration(hello.HeartbeatNS)
	cfg.Negative = nil
	if len(hello.Negative) > 0 {
		cfg.Negative = core.NewPairSet()
		for _, k := range hello.Negative {
			cfg.Negative.AddKey(core.PairKey(k))
		}
	}
	plan, err := core.NewRoundPlan(cfg, scheme)
	if err != nil {
		return err
	}
	opts.logf("worker %d: handshake complete (%s, %d neighborhoods)", worker, scheme, cfg.Cover.Len())

	// The replica is evidence in the plan's own form (plan.NewEvidence):
	// a bitset over the candidate ids the worker's matcher grounded, the
	// same ids as the coordinator's since both ground the same model.
	var replica *core.Evidence
	if plan.Exchange {
		replica = plan.NewEvidence()
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		ft, payload, err := conn.Recv()
		switch {
		case err == io.EOF:
			return nil // coordinator done with us
		case err != nil:
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("net: worker %d: %w", worker, err)
		}
		if ft != wire.FrameAssign {
			return fmt.Errorf("net: worker %d: unexpected frame type %d", worker, ft)
		}
		a, err := wire.UnmarshalAssign(payload)
		if err != nil {
			return fmt.Errorf("net: worker %d: bad assign: %w", worker, err)
		}
		// The decoder checked that the ids ascend from 0 or above.
		if n := len(a.IDs); n > 0 && int(a.IDs[n-1]) >= cfg.Cover.Len() {
			return fmt.Errorf("net: worker %d: bad assign: neighborhood %d outside a cover of %d", worker, a.IDs[n-1], cfg.Cover.Len())
		}
		opts.logf("worker %d: round %d: evaluating partition %d (%d neighborhoods, %d catch-up keys)",
			worker, a.Round, a.Part, len(a.IDs), len(a.Keys))
		if plan.Exchange {
			if a.FromRound == 0 && replica.Len() > 0 {
				replica = plan.NewEvidence() // full-sync resets the replica
			}
			replica.AddAscending(a.Keys)
		}
		enc, err := evaluateAssign(ctx, conn, plan, replica, a, worker, heartbeat)
		if err != nil {
			return err
		}
		if err := conn.Send(wire.FrameBatch, enc); err != nil {
			return fmt.Errorf("net: worker %d: sending round %d batch: %w", worker, a.Round, err)
		}
	}
}

// workerHandshake answers the coordinator's Hello and verifies the run
// fingerprints match. Returns the coordinator's Hello: the assigned worker
// id, the requested heartbeat interval and the run's V−.
func workerHandshake(conn *Conn, cover *core.Cover, scheme string, opts WorkerOptions) (*wire.Hello, error) {
	ft, payload, err := conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("net: worker handshake: %w", err)
	}
	if ft != wire.FrameHello {
		return nil, fmt.Errorf("net: worker handshake: got frame type %d, want hello", ft)
	}
	hello, err := wire.UnmarshalHello(payload)
	if err != nil {
		return nil, fmt.Errorf("net: worker handshake: %w", err)
	}
	ack := &wire.Hello{
		Worker:        hello.Worker,
		Scheme:        scheme,
		Matcher:       opts.Matcher,
		Neighborhoods: cover.Len(),
		Entities:      cover.NumEntities,
		HeartbeatNS:   hello.HeartbeatNS,
	}
	enc, err := ack.Marshal(wire.Binary)
	if err != nil {
		return nil, err
	}
	if err := conn.Send(wire.FrameHelloAck, enc); err != nil {
		return nil, fmt.Errorf("net: worker handshake: %w", err)
	}
	if err := fingerprintMismatch(hello, ack); err != nil {
		return nil, err
	}
	return hello, nil
}

// fingerprintMismatch compares the two sides' run fingerprints. Empty
// matcher labels opt out of the model check, as in saved states.
func fingerprintMismatch(a, b *wire.Hello) error {
	if a.Scheme != b.Scheme {
		return fmt.Errorf("net: scheme mismatch: %q vs %q", a.Scheme, b.Scheme)
	}
	if a.Matcher != "" && b.Matcher != "" && a.Matcher != b.Matcher {
		return fmt.Errorf("net: matcher mismatch: %q vs %q", a.Matcher, b.Matcher)
	}
	if a.Neighborhoods != b.Neighborhoods || a.Entities != b.Entities {
		return fmt.Errorf("net: cover mismatch: %d neighborhoods over %d entities vs %d over %d",
			a.Neighborhoods, a.Entities, b.Neighborhoods, b.Entities)
	}
	return nil
}

// evaluateAssign runs one partition assignment against the replica and
// returns the encoded epoch-tagged batch. A heartbeat goroutine keeps
// the coordinator's deadline at bay while the evaluation runs.
func evaluateAssign(ctx context.Context, conn *Conn, plan *core.RoundPlan, replica *core.Evidence,
	a *wire.Assign, worker int, heartbeat time.Duration) ([]byte, error) {
	stop := make(chan struct{})
	if heartbeat > 0 {
		hb := &wire.Heartbeat{Worker: worker, Round: a.Round, Part: a.Part}
		if enc, err := hb.Marshal(wire.Binary); err == nil {
			go func() {
				t := time.NewTicker(heartbeat)
				defer t.Stop()
				for {
					select {
					case <-stop:
						return
					case <-t.C:
						// A failed heartbeat means the conn is dying; the
						// batch send will surface the error.
						_ = conn.Send(wire.FrameHeartbeat, enc)
					}
				}
			}()
		}
	}
	defer close(stop)

	batch := &wire.ShardBatch{Round: a.Round, Shard: a.Part, Epoch: a.Epoch, Jobs: make([]wire.Job, len(a.IDs))}
	for i, id := range a.IDs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		j := plan.Evaluate(id, replica, a.AllowSkip)
		batch.Jobs[i] = plan.JobToWire(&j)
	}
	return batch.Marshal(wire.Binary)
}

// Serve accepts coordinator connections on l, one run at a time — the
// loop of cmd/emworker. It returns when ctx is canceled or the
// listener fails.
func Serve(ctx context.Context, l stdnet.Listener, cfg core.Config, scheme string, opts WorkerOptions) error {
	go func() {
		<-ctx.Done()
		l.Close()
	}()
	for {
		c, err := l.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		opts.logf("worker: coordinator connected from %v", c.RemoteAddr())
		if err := ServeConn(ctx, cfg, scheme, c, opts); err != nil && !errors.Is(err, ctx.Err()) {
			opts.logf("worker: session ended: %v", err)
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
}
