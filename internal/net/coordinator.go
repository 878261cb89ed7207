package net

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// Backend is the sharded executor, registered as "sharded": a
// coordinator owning the central RoundDriver plus K workers speaking the
// wire codec over framed streams. Neighborhood i belongs to partition
// i mod K, with K fixed at the slot count for the whole run; what varies
// under faults is only WHICH worker evaluates a partition, which the
// consistency theorems make invisible in the output.
type Backend struct {
	// Workers is the slot count for in-process workers; ignored when
	// Addrs is set (each address is one slot). Values < 1 mean one per
	// CPU.
	Workers int

	// Addrs attaches remote workers (cmd/emworker), one slot each. See
	// DialSpawner for the address forms.
	Addrs []string

	// Opts tunes supervision; the zero value works.
	Opts Options
}

// slots returns the partition/worker slot count.
func (b *Backend) slots() int {
	if len(b.Addrs) > 0 {
		return len(b.Addrs)
	}
	if b.Workers < 1 {
		return runtime.NumCPU()
	}
	return b.Workers
}

// RunRounds implements core.Backend.
func (b *Backend) RunRounds(ctx context.Context, plan *core.RoundPlan, d *core.RoundDriver) error {
	c := newCoordinator(b, plan, d)
	defer c.shutdown()
	if err := c.connectAll(ctx); err != nil {
		return err
	}
	for !d.Done() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := c.runRound(ctx); err != nil {
			return err
		}
	}
	return nil
}

// slot is one worker seat: its connection, liveness, and how much of
// the evidence log it provably holds.
type slot struct {
	id    int
	conn  *Conn
	alive bool
	// failed marks a slot whose (re)spawn was refused; it is never
	// retried — the SIGKILLed-process case.
	failed bool
	// synced is the evidence-log prefix the worker has provably applied
	// (proven by a received batch; advanced only then, so a dropped
	// assignment can never leave the coordinator believing the worker
	// knows more than it does).
	synced      int
	syncedRound int
	outbox      chan outMsg
	// gen counts this slot's connections; events from a superseded
	// connection's reader or writer goroutines carry the old generation
	// and must not retire the slot's current connection.
	gen int
}

// outMsg is one queued assignment frame; part/epoch identify the
// assignment a failed send must be retried for.
type outMsg struct {
	payload []byte
	part    int
	epoch   int
}

type evKind int

const (
	evFrame evKind = iota
	evConnErr
	evSendErr
	evTimeout
	evRetry
)

// event is anything the coordinator loop reacts to; readers, outbox
// writers, and timers post them, the loop is the only consumer.
type event struct {
	kind    evKind
	worker  int
	gen     int
	ft      byte
	payload []byte
	err     error
	part    int
	epoch   int
	round   int
}

type coordinator struct {
	plan    *core.RoundPlan
	d       *core.RoundDriver
	opts    Options
	matcher string // the run's matcher label, checked at every handshake
	spawn   Spawner
	k       int
	slots   []*slot

	events chan event
	stopc  chan struct{}
	rng    *rand.Rand

	// evLog is the append-ordered evidence history: the run's starting
	// snapshot followed by each round's delta. The snapshot at the start
	// of a round is always a prefix, so per-worker catch-up is a slice.
	evLog []uint64
	// negative is the run's V−, ascending, as every Hello carries it.
	negative []uint64
	// epoch per partition, bumped on every dispatch; a batch tagged with
	// anything but the current epoch is late and dropped.
	epoch []int
}

func newCoordinator(b *Backend, plan *core.RoundPlan, d *core.RoundDriver) *coordinator {
	c := &coordinator{
		plan:    plan,
		d:       d,
		opts:    b.Opts,
		matcher: d.MatcherLabel(),
		k:       b.slots(),
		events:  make(chan event, 256),
		stopc:   make(chan struct{}),
	}
	c.rng = rand.New(rand.NewSource(c.opts.seed()))
	c.epoch = make([]int, c.k)
	c.slots = make([]*slot, c.k)
	for i := range c.slots {
		c.slots[i] = &slot{id: i}
	}
	c.spawn = b.Opts.Spawn
	if c.spawn == nil {
		if len(b.Addrs) > 0 {
			c.spawn = DialSpawner(b.Addrs)
		} else {
			// Local in-process workers built from the coordinator's own
			// plan — same protocol, no sockets.
			c.spawn = LocalSpawner(plan.Config, plan.Scheme, WorkerOptions{Matcher: c.matcher})
		}
	}
	for _, k := range plan.Config.Negative.SortedKeys() {
		c.negative = append(c.negative, uint64(k))
	}
	if plan.Exchange {
		if snap := d.Snapshot(); snap != nil {
			for _, k := range snap.SortedKeys() {
				c.evLog = append(c.evLog, uint64(k))
			}
		}
	}
	return c
}

// shutdown tears the fleet down: readers, writers, and stray timers
// all unblock on stopc or their closed conn.
func (c *coordinator) shutdown() {
	close(c.stopc)
	for _, s := range c.slots {
		if s.conn != nil {
			s.conn.Close()
		}
	}
}

// post delivers an event unless the run is over.
func (c *coordinator) post(ev event) {
	select {
	case c.events <- ev:
	case <-c.stopc:
	}
}

// connectAll brings up every slot; the run proceeds as long as at
// least one worker answers.
func (c *coordinator) connectAll(ctx context.Context) error {
	live := 0
	var lastErr error
	for _, s := range c.slots {
		if err := c.connectSlot(ctx, s); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = err
			c.opts.logf("net: worker %d unavailable: %v", s.id, err)
			continue
		}
		live++
	}
	if live == 0 {
		return fmt.Errorf("net: no workers available: %w", lastErr)
	}
	return nil
}

// connectSlot (re)spawns one worker with bounded backoff; exhausting
// the retries marks the slot failed for the rest of the run.
func (c *coordinator) connectSlot(ctx context.Context, s *slot) error {
	var err error
	for attempt := 0; attempt <= c.opts.maxRetries(); attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(c.backoff(attempt)):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if err = c.connect(ctx, s); err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	s.failed = true
	return err
}

// backoff is exponential with seeded jitter: base·2^(attempt-1) plus
// up to one base.
func (c *coordinator) backoff(attempt int) time.Duration {
	base := c.opts.retryBackoff()
	d := base << uint(attempt-1)
	return d + time.Duration(c.rng.Int63n(int64(base)))
}

// connect spawns the worker stream, runs the handshake, verifies the
// fingerprint, and starts the slot's reader and writer.
func (c *coordinator) connect(ctx context.Context, s *slot) error {
	rw, err := c.spawn(ctx, s.id)
	if err != nil {
		return err
	}
	if c.opts.Wrap != nil {
		rw = c.opts.Wrap(s.id, rw)
	}
	conn := NewConn(rw)
	hello := &wire.Hello{
		Worker:        s.id,
		Scheme:        c.plan.Scheme,
		Matcher:       c.matcher,
		Neighborhoods: c.plan.Config.Cover.Len(),
		Entities:      c.plan.Config.Cover.NumEntities,
		HeartbeatNS:   int64(c.opts.heartbeatInterval()),
		Negative:      c.negative,
	}
	enc, err := hello.Marshal(wire.Binary)
	if err != nil {
		conn.Close()
		return err
	}
	if err := conn.Send(wire.FrameHello, enc); err != nil {
		conn.Close()
		return fmt.Errorf("net: worker %d handshake: %w", s.id, err)
	}
	ft, payload, err := conn.Recv()
	if err != nil {
		conn.Close()
		return fmt.Errorf("net: worker %d handshake: %w", s.id, err)
	}
	if ft != wire.FrameHelloAck {
		conn.Close()
		return fmt.Errorf("net: worker %d handshake: got frame type %d, want hello-ack", s.id, ft)
	}
	ack, err := wire.UnmarshalHello(payload)
	if err != nil {
		conn.Close()
		return fmt.Errorf("net: worker %d handshake: %w", s.id, err)
	}
	if err := fingerprintMismatch(hello, ack); err != nil {
		conn.Close()
		return fmt.Errorf("net: worker %d: %w", s.id, err)
	}
	s.conn = conn
	s.alive = true
	s.synced, s.syncedRound = 0, 0
	s.outbox = make(chan outMsg, 64)
	s.gen++
	go c.runReader(s.id, s.gen, conn)
	go c.runWriter(s.id, s.gen, conn, s.outbox)
	return nil
}

// runReader pumps one connection's frames into the event loop until
// the stream dies.
func (c *coordinator) runReader(worker, gen int, conn *Conn) {
	for {
		ft, payload, err := conn.Recv()
		if err != nil {
			c.post(event{kind: evConnErr, worker: worker, gen: gen, err: err})
			return
		}
		c.post(event{kind: evFrame, worker: worker, gen: gen, ft: ft, payload: payload})
	}
}

// runWriter drains one slot's outbox so the event loop never blocks on
// a slow peer; send failures come back as events carrying the
// assignment they interrupted.
func (c *coordinator) runWriter(worker, gen int, conn *Conn, outbox chan outMsg) {
	for {
		select {
		case <-c.stopc:
			return
		case m := <-outbox:
			if err := conn.Send(wire.FrameAssign, m.payload); err != nil {
				c.post(event{kind: evSendErr, worker: worker, gen: gen, part: m.part, epoch: m.epoch, err: err})
			}
		}
	}
}

// enqueue queues a frame on a slot's outbox (drops it if the run is
// shutting down).
func (c *coordinator) enqueue(s *slot, m outMsg) {
	select {
	case s.outbox <- m:
	case <-c.stopc:
	}
}

// partState tracks one partition through one round.
type partState struct {
	ids        []int32
	worker     int // current assignee slot
	epoch      int // current assignment epoch
	dispatches int // dispatch count this round (bounds the retry loop)
	attempts   int // failed-send retries this round
	accounted  bool
	jobs       []wire.Job
	timer      *time.Timer
}

// runRound distributes one round's active set and blocks until every
// partition's batch has been accounted exactly once.
func (c *coordinator) runRound(ctx context.Context) error {
	d := c.d
	round := d.Round()
	active := d.Active()
	allowSkip := d.AllowSkip()
	lenAt := len(c.evLog) // evidence prefix == this round's start snapshot

	parts := make([]*partState, c.k)
	pending := 0
	for _, id := range active {
		p := int(id) % c.k
		if parts[p] == nil {
			parts[p] = &partState{worker: -1}
			pending++
		}
		parts[p].ids = append(parts[p].ids, id)
	}
	defer func() {
		for _, st := range parts {
			if st != nil && st.timer != nil {
				st.timer.Stop()
			}
		}
	}()

	for p, st := range parts {
		if st == nil {
			continue
		}
		if err := c.dispatch(ctx, round, p, st, allowSkip, lenAt); err != nil {
			return err
		}
	}

	for pending > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case ev := <-c.events:
			n, err := c.handle(ctx, ev, round, parts, allowSkip, lenAt)
			if err != nil {
				return err
			}
			pending -= n
		}
	}

	// Commit: reassemble the jobs in active-set order via per-partition
	// cursors (each batch lists its jobs in the order the partition was
	// built, which is a subsequence of active).
	jobs := make([]core.Job, len(active))
	cursor := make([]int, c.k)
	for i, id := range active {
		p := int(id) % c.k
		wj := &parts[p].jobs[cursor[p]]
		cursor[p]++
		if wj.ID != id {
			return fmt.Errorf("net: partition %d round %d: job %d evaluates neighborhood %d, want %d",
				p, round, cursor[p]-1, wj.ID, id)
		}
		jobs[i] = c.plan.JobFromWire(wj)
		if err := core.ValidateJob(&jobs[i], c.plan.Config.Cover.NumEntities); err != nil {
			return fmt.Errorf("net: worker %d partition %d round %d: %w", parts[p].worker, p, round, err)
		}
	}
	if err := d.FinishRound(jobs); err != nil {
		return err
	}
	if c.plan.Exchange {
		for _, key := range d.RoundDelta() {
			c.evLog = append(c.evLog, uint64(key))
		}
	}
	return nil
}

// dispatch assigns (or re-assigns) one partition to a live worker,
// bumping its epoch so any previously outstanding assignment goes
// stale, and arms the round deadline.
func (c *coordinator) dispatch(ctx context.Context, round, p int, st *partState, allowSkip bool, lenAt int) error {
	st.dispatches++
	if st.dispatches > c.opts.maxRetries()+c.k {
		return fmt.Errorf("net: partition %d round %d undeliverable after %d dispatches", p, round, st.dispatches-1)
	}
	s, err := c.pickTarget(ctx, p)
	if err != nil {
		return fmt.Errorf("net: partition %d round %d: %w", p, round, err)
	}
	c.epoch[p]++
	st.worker, st.epoch = s.id, c.epoch[p]
	a := &wire.Assign{
		Round:     round,
		Epoch:     st.epoch,
		Part:      p,
		FromRound: s.syncedRound,
		AllowSkip: allowSkip,
		Keys:      c.catchup(s, lenAt),
		IDs:       st.ids,
	}
	enc, err := a.Marshal(wire.Binary)
	if err != nil {
		return err
	}
	c.enqueue(s, outMsg{payload: enc, part: p, epoch: st.epoch})
	c.armTimer(st, round, p)
	return nil
}

// armTimer (re)starts the partition's round deadline; on breach the
// loop receives a timeout event tagged with the epoch it bounds.
func (c *coordinator) armTimer(st *partState, round, p int) {
	if st.timer != nil {
		st.timer.Stop()
	}
	epoch := st.epoch
	st.timer = time.AfterFunc(c.opts.roundDeadline(), func() {
		c.post(event{kind: evTimeout, part: p, epoch: epoch, round: round})
	})
}

// catchup returns the evidence keys bringing a worker's replica from
// its proven state to the round-start snapshot, sorted. Spanning
// several rounds' deltas it must be re-sorted; keys are unique by
// construction (a pair enters the evidence exactly once).
func (c *coordinator) catchup(s *slot, lenAt int) []uint64 {
	if s.synced >= lenAt {
		return nil
	}
	keys := slices.Clone(c.evLog[s.synced:lenAt])
	slices.Sort(keys)
	return keys
}

// pickTarget finds a live worker for a partition, preferring its home
// slot; with the whole fleet down it attempts respawns before giving
// up (which fails the run).
func (c *coordinator) pickTarget(ctx context.Context, p int) (*slot, error) {
	for i := 0; i < c.k; i++ {
		if s := c.slots[(p+i)%c.k]; s.alive {
			return s, nil
		}
	}
	for i := 0; i < c.k; i++ {
		s := c.slots[(p+i)%c.k]
		if s.failed {
			continue
		}
		if err := c.connectSlot(ctx, s); err != nil {
			c.opts.logf("net: respawning worker %d failed: %v", s.id, err)
			continue
		}
		c.opts.logf("net: respawned worker %d", s.id)
		return s, nil
	}
	return nil, errors.New("no live workers and every respawn failed")
}

// markDead retires a slot. Deadline breaches keep the conn open
// (draining a zombie's late batches, which epoch-dedup discards);
// transport errors close it.
func (c *coordinator) markDead(s *slot, closeConn bool) {
	if !s.alive {
		return
	}
	s.alive = false
	if closeConn && s.conn != nil {
		s.conn.Close()
	}
}

// handle processes one event, returning how many partitions it
// accounted.
func (c *coordinator) handle(ctx context.Context, ev event, round int, parts []*partState, allowSkip bool, lenAt int) (int, error) {
	switch ev.kind {
	case evFrame:
		return c.handleFrame(ev, round, parts, lenAt)

	case evConnErr:
		s := c.slots[ev.worker]
		if ev.gen != s.gen {
			return 0, nil // a superseded connection's death is old news
		}
		wasAlive := s.alive
		c.markDead(s, true)
		if !wasAlive {
			return 0, nil
		}
		c.opts.logf("net: worker %d died: %v", ev.worker, ev.err)
		return 0, c.reassignOwned(ctx, ev.worker, -1, round, parts, allowSkip, lenAt)

	case evSendErr:
		s := c.slots[ev.worker]
		if ev.gen != s.gen {
			return 0, nil // queued on a superseded connection's outbox
		}
		wasAlive := s.alive
		c.markDead(s, true)
		st := partOK(parts, ev.part)
		if st != nil && !st.accounted && st.epoch == ev.epoch {
			// The assignment never reached the worker: a retry, not a
			// reassignment. Back off before re-dispatching.
			st.attempts++
			if st.attempts > c.opts.maxRetries() {
				return 0, fmt.Errorf("net: partition %d round %d: send failed %d times: %w",
					ev.part, round, st.attempts, ev.err)
			}
			c.d.AccountResilience(0, 1, 0)
			c.opts.logf("net: partition %d round %d: send to worker %d failed (retry %d): %v",
				ev.part, round, ev.worker, st.attempts, ev.err)
			epoch := st.epoch
			time.AfterFunc(c.backoff(st.attempts), func() {
				c.post(event{kind: evRetry, part: ev.part, epoch: epoch, round: round})
			})
		}
		if !wasAlive {
			return 0, nil
		}
		return 0, c.reassignOwned(ctx, ev.worker, ev.part, round, parts, allowSkip, lenAt)

	case evTimeout:
		st := partOK(parts, ev.part)
		if st == nil || st.accounted || st.epoch != ev.epoch || ev.round != round {
			return 0, nil
		}
		// Deadline breach: the worker may be hung or just slow — treat
		// it as gone for assignment purposes but keep its conn open so
		// a late batch arrives (and is dropped) instead of tearing the
		// stream mid-frame.
		c.markDead(c.slots[st.worker], false)
		c.opts.logf("net: partition %d round %d: worker %d missed the deadline, reassigning",
			ev.part, round, st.worker)
		c.d.AccountResilience(1, 0, 0)
		return 0, c.dispatch(ctx, round, ev.part, st, allowSkip, lenAt)

	case evRetry:
		st := partOK(parts, ev.part)
		if st == nil || st.accounted || st.epoch != ev.epoch || ev.round != round {
			return 0, nil
		}
		return 0, c.dispatch(ctx, round, ev.part, st, allowSkip, lenAt)
	}
	return 0, nil
}

// reassignOwned re-dispatches every unaccounted partition assigned to
// a dead worker (skip is the partition already handled as a send
// retry; -1 handles all).
func (c *coordinator) reassignOwned(ctx context.Context, worker, skip, round int, parts []*partState, allowSkip bool, lenAt int) error {
	for p, st := range parts {
		if st == nil || st.accounted || st.worker != worker || p == skip {
			continue
		}
		c.opts.logf("net: partition %d round %d reassigned off worker %d", p, round, worker)
		c.d.AccountResilience(1, 0, 0)
		if err := c.dispatch(ctx, round, p, st, allowSkip, lenAt); err != nil {
			return err
		}
	}
	return nil
}

// handleFrame processes a worker frame: batches are accounted exactly
// once per partition (stale epochs and duplicates are dropped and
// counted), heartbeats extend the assignee's deadline.
func (c *coordinator) handleFrame(ev event, round int, parts []*partState, lenAt int) (int, error) {
	switch ev.ft {
	case wire.FrameBatch:
		batch, err := wire.UnmarshalShardBatch(ev.payload)
		if err != nil {
			return 0, fmt.Errorf("net: worker %d round %d: bad batch: %w", ev.worker, round, err)
		}
		if batch.Shard < 0 || batch.Shard >= len(parts) {
			return 0, fmt.Errorf("net: worker %d returned a batch for unknown partition %d", ev.worker, batch.Shard)
		}
		// A partition with no work this round (nil) can still get a late
		// batch of an earlier round; it is dropped like any other.
		st := parts[batch.Shard]
		if st == nil || batch.Round != round || batch.Epoch != st.epoch || st.accounted {
			c.d.AccountResilience(0, 0, 1)
			c.opts.logf("net: dropped late batch from worker %d (partition %d round %d epoch %d; current round %d)",
				ev.worker, batch.Shard, batch.Round, batch.Epoch, round)
			return 0, nil
		}
		if len(batch.Jobs) != len(st.ids) {
			return 0, fmt.Errorf("net: worker %d partition %d round %d: %d jobs for %d ids",
				ev.worker, batch.Shard, round, len(batch.Jobs), len(st.ids))
		}
		st.accounted = true
		st.jobs = batch.Jobs
		if st.timer != nil {
			st.timer.Stop()
		}
		// A batch for this round proves the worker's replica holds the
		// round-start snapshot.
		if s := c.slots[ev.worker]; s.synced < lenAt {
			s.synced, s.syncedRound = lenAt, round
		}
		return 1, nil

	case wire.FrameHeartbeat:
		hb, err := wire.UnmarshalHeartbeat(ev.payload)
		if err != nil {
			return 0, nil // a malformed heartbeat is not worth a run
		}
		st := partOK(parts, hb.Part)
		if st != nil && !st.accounted && st.worker == ev.worker && hb.Round == round {
			c.armTimer(st, round, hb.Part)
		}
		return 0, nil
	}
	return 0, nil // unexpected frame types are ignored
}

// partOK bounds-checks a partition index from the wire.
func partOK(parts []*partState, p int) *partState {
	if p < 0 || p >= len(parts) {
		return nil
	}
	return parts[p]
}
