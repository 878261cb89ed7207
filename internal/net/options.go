package net

import (
	"io"
	"time"
)

// Options tunes the coordinator's supervision of its workers. The zero
// value is fully usable: local in-process workers, generous deadlines.
// The handshake's matcher label is not an option: it is the run's own
// (core.CheckpointConfig.Matcher, set by cem.Runner to the registry
// name).
type Options struct {
	// RoundDeadline bounds one partition assignment: if the assigned
	// worker neither heartbeats nor returns its batch within it, the
	// partition is reassigned to a live worker. <= 0 means 30s.
	RoundDeadline time.Duration

	// HeartbeatInterval is the liveness cadence workers are asked to
	// keep while evaluating. <= 0 means RoundDeadline / 4.
	HeartbeatInterval time.Duration

	// MaxRetries bounds the send retries per assignment dispatch and
	// the connect attempts per worker slot. <= 0 means 3.
	MaxRetries int

	// RetryBackoff is the base of the exponential backoff between
	// retries (doubled per attempt, plus seeded jitter). <= 0 means
	// 25ms.
	RetryBackoff time.Duration

	// Seed feeds the backoff jitter; fixed so fault-injection runs are
	// reproducible. 0 means 1.
	Seed int64

	// Spawn overrides how worker streams are created. nil means: dial
	// Addrs when the backend has addresses, else spawn local in-process
	// workers from the coordinator's own plan.
	Spawn Spawner

	// Wrap, when non-nil, wraps every coordinator-side worker stream —
	// the fault-injection hook (see faultnet).
	Wrap func(worker int, rw io.ReadWriteCloser) io.ReadWriteCloser

	// Logf, when non-nil, receives supervision events (worker deaths,
	// reassignments, dropped late batches).
	Logf func(format string, args ...any)
}

func (o *Options) roundDeadline() time.Duration {
	if o.RoundDeadline > 0 {
		return o.RoundDeadline
	}
	return 30 * time.Second
}

func (o *Options) heartbeatInterval() time.Duration {
	if o.HeartbeatInterval > 0 {
		return o.HeartbeatInterval
	}
	return o.roundDeadline() / 4
}

func (o *Options) maxRetries() int {
	if o.MaxRetries > 0 {
		return o.MaxRetries
	}
	return 3
}

func (o *Options) retryBackoff() time.Duration {
	if o.RetryBackoff > 0 {
		return o.RetryBackoff
	}
	return 25 * time.Millisecond
}

func (o *Options) seed() int64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return 1
}

func (o *Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// WorkerOptions tunes one worker process (or goroutine).
type WorkerOptions struct {
	// Matcher labels the worker's model (cmd/emworker: its -matcher
	// registry name) for the handshake fingerprint. A coordinator whose
	// run carries a different non-empty label refuses the worker; empty
	// on either side opts out, as in checkpoint trails.
	Matcher string

	// Wrap, when non-nil, wraps the worker-side stream — the worker half
	// of the fault-injection hook.
	Wrap func(worker int, rw io.ReadWriteCloser) io.ReadWriteCloser

	// Logf, when non-nil, receives worker lifecycle events.
	Logf func(format string, args ...any)
}

func (o *WorkerOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}
