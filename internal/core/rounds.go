package core

import (
	"context"
	"errors"
	"slices"
	"time"
)

// RoundDriver owns the central (Reduce) state of a round-based run: the
// accumulated evidence M+ (an Evidence in the plan's form, materialized
// as Result.Matches only when the run finishes), the maximal-message
// store, visit counts, run statistics and the active set, saved at every
// round boundary when Config.Save is set. It is the one fixpoint
// loop's state: every backend drives it round by round. Evaluate may run
// concurrently between two reduces, for distinct ids; everything else
// belongs to one goroutine (reduce is central by design, as in the
// paper's §6.3 grid where a designated machine merges each round).
type RoundDriver struct {
	plan   *RoundPlan
	res    *Result
	ev     *Evidence // M+
	visits []int
	store  *MessageStore // MMP only
	arena  MessageIDs    // a one-worker pool's job messages, reused job to job

	active []int32
	// roundMark is where the running round starts in M+'s insertion log:
	// what was added since is the round's new pairs, in reduce order.
	roundMark int
	// seen[id] is how many of those neighborhood id's evaluation this
	// round already had as evidence (0 for snapshot and replica rounds):
	// only a later pair re-activates it.
	seen    []int32
	marks   *reach // Cover.affectedUnseen's scratch, kept from round to round
	lastNew []Pair // the just-finished round's new pairs (reduce order)
	round   int    // last completed round
	done    bool

	start time.Time
	prior time.Duration // elapsed time credited by a continued state

	// cacheStart snapshots the matcher's cumulative memo counters at
	// driver construction; finish() reports the delta. Saved states do
	// not persist cache counters, so a continued run reports only the
	// continuing process's cache activity.
	cacheStart CacheReport
}

// newRoundDriver initializes the reduce state of a cold run: every
// neighborhood active in round 1.
func newRoundDriver(plan *RoundPlan) *RoundDriver {
	d := &RoundDriver{plan: plan, start: time.Now()}
	d.cacheStart, _ = cacheSnapshot(plan.Config.Matcher)
	d.res = &Result{Scheme: plan.Scheme}
	d.ev = plan.NewEvidence()
	d.res.Stats.Neighborhoods = plan.Config.Cover.Len()
	d.visits = make([]int, plan.Config.Cover.Len())
	d.seen = make([]int32, plan.Config.Cover.Len())
	d.marks = plan.Config.Cover.newReach()
	if plan.WithMessages {
		d.store = newMessageStore(plan.table)
	}
	d.active = allNeighborhoods(plan.Config.Cover.Len())
	d.done = len(d.active) == 0
	return d
}

// Done reports whether the run has reached fixpoint (no active
// neighborhoods remain).
func (d *RoundDriver) Done() bool { return d.done }

// Round returns the number of the round about to execute (1-based;
// continued runs count on from their saved state's round).
func (d *RoundDriver) Round() int { return d.round + 1 }

// Active returns the ids to evaluate this round, in ascending order.
// Backends must treat the slice as read-only.
func (d *RoundDriver) Active() []int32 { return d.active }

// Snapshot returns the evidence for the round about to execute: the
// accumulated M+ for evidence-exchanging schemes, nil for NO-MP (whose
// matcher contract is evidence-free first visits). It is the live M+ in
// the plan's form — a bitset over the dense matcher's candidate ids, or
// all overflow — read-only, and unchanged only until the next Reduce; a
// backend that keeps replicas elsewhere ships Snapshot().SortedKeys() once
// and RoundDelta() after every round.
func (d *RoundDriver) Snapshot() *Evidence {
	if !d.plan.Exchange {
		return nil
	}
	return d.ev
}

// MatcherLabel returns the run's matcher label (Config.MatcherLabel;
// empty for an anonymous matcher): the fingerprint a distributed backend
// checks its workers against, as CheckHeader checks a saved state.
func (d *RoundDriver) MatcherLabel() string { return d.plan.Config.MatcherLabel }

// AllowSkip reports whether this round's evaluations may discharge
// undecided-free neighborhoods without a matcher call: only past round
// 1 (every id is then a re-activation) and only for candidate-closure
// matchers. Continued runs inherit the property because their round
// counter continues from the saved state.
func (d *RoundDriver) AllowSkip() bool {
	return d.plan.CanSkip && d.Round() > 1
}

// Evaluate runs one neighborhood of the current round against the
// driver's own Snapshot — for backends that schedule work but do not
// distribute state. Besides reading, it writes only id's own seen slot.
func (d *RoundDriver) Evaluate(id int32) Job { return d.evaluate(id, nil) }

// evaluate is Evaluate with the job's messages in arena: a backend that
// reduces each job before it evaluates the next needs only one.
func (d *RoundDriver) evaluate(id int32, arena *MessageIDs) Job {
	d.seen[id] = int32(d.ev.Mark() - d.roundMark)
	return d.plan.evaluate(id, d.Snapshot(), d.AllowSkip(), arena)
}

// Reduce merges one evaluated job of the current round into the global
// state: its matches join M+ (a job lists them in packed-key order, so
// the round's evidence delta is reproducible run-to-run) and its maximal
// messages join the store, each counted in RunStats.MaximalMessages (no
// job carries a singleton: see ComputeMaximal).
// Reducing in Active() order keeps counters, progress events and the
// delta order reproducible; the output does not depend on the order
// (consistency). A backend that reduces each job before evaluating the
// next propagates evidence within the round (Algorithm 1 as written);
// one that maps the whole round against the round-start Snapshot reduces
// it afterwards with FinishRound.
func (d *RoundDriver) Reduce(j Job) {
	if j.skipped {
		d.res.Stats.Skips++
		return
	}
	stats := &d.res.Stats
	d.visits[j.id]++
	stats.Evaluations++
	stats.MatcherCalls += j.calls
	stats.MatcherTime += j.dur
	stats.ActiveSizes = append(stats.ActiveSizes, j.active)
	for _, id := range j.ids {
		d.ev.AddID(id)
	}
	for _, k := range j.keys {
		d.ev.AddKey(k)
	}
	if d.store != nil {
		stats.MaximalMessages += j.msgs.Len() + len(j.pairMsgs)
		for i := range j.msgs.Len() {
			d.store.AddIDs(j.msgs.At(i))
		}
		for _, msg := range j.pairMsgs {
			d.store.Add(msg)
		}
	}
	d.plan.Config.emit(d.plan.Scheme, j.id, d.round+1, stats.Evaluations, d.ev.Len())
}

// EndRound closes the current round once every active job is reduced:
// it promotes sound maximal messages (Algorithm 3 Step 7), derives the
// next active set from the neighborhoods the round's new pairs affect
// (a neighborhood Evaluate ran after a pair was reduced already had it
// as evidence, and is not re-activated by it) and saves the run's state
// when configured. The delta is available from RoundDelta afterwards.
func (d *RoundDriver) EndRound() error {
	if d.store != nil {
		d.promote()
	}
	d.round++
	d.lastNew = d.ev.Since(d.roundMark)
	d.roundMark = d.ev.Mark()

	switch {
	case !d.plan.Exchange, len(d.lastNew) == 0:
		d.active, d.done = nil, true
	default:
		affected := d.plan.Config.Cover.affectedUnseen(d.lastNew, d.plan.Config.Relation, d.seen, d.marks)
		d.res.Stats.MessagesSent += len(affected)
		for _, id := range d.active {
			d.seen[id] = 0
		}
		d.active = affected
	}
	return d.save()
}

// FinishRound is the batch form of the central Reduce: jobs are the
// whole round, in Active() order, evaluated against the round-start
// Snapshot.
func (d *RoundDriver) FinishRound(jobs []Job) error {
	for _, j := range jobs {
		d.Reduce(j)
	}
	return d.EndRound()
}

// AccountResilience adds a distributed backend's transport events to
// the run's stats: partitions reassigned after a worker death or
// deadline breach, sends retried after transient errors, and stale-
// epoch batches dropped. Counters are monotone (negative increments are
// ignored) and, like the cache report, are per-process — saved states do
// not persist them.
func (d *RoundDriver) AccountResilience(reassignments, retriedSends, lateDropped int) {
	if reassignments > 0 {
		d.res.Stats.Reassignments += reassignments
	}
	if retriedSends > 0 {
		d.res.Stats.RetriedSends += retriedSends
	}
	if lateDropped > 0 {
		d.res.Stats.LateBatchesDropped += lateDropped
	}
}

// RoundDelta returns the just-finished round's evidence delta (new
// matches plus promotions) in ascending PairKey order — the canonical
// batch a distributed backend sends its workers. Computed on
// demand: the default pool path shares memory and never asks.
func (d *RoundDriver) RoundDelta() []PairKey {
	delta := make([]PairKey, len(d.lastNew))
	for i, p := range d.lastNew {
		delta[i] = p.Key()
	}
	slices.Sort(delta)
	return delta
}

// finish seals the result (the match set, materialized from M+ this once;
// max revisits, outstanding messages, wall clock) and returns it.
func (d *RoundDriver) finish() *Result {
	d.res.Matches = d.ev.PairSet()
	for _, v := range d.visits {
		if v > d.res.Stats.MaxRevisits {
			d.res.Stats.MaxRevisits = v
		}
	}
	if d.store != nil {
		d.res.Messages = d.store.Messages()
	}
	d.res.Stats.Cache = cacheDelta(d.plan.Config.Matcher, d.cacheStart)
	d.res.Stats.Elapsed = d.prior + time.Since(d.start)
	return d.res
}

// RunBackend executes a neighborhood scheme ("NO-MP", "SMP", "MMP") on
// the given execution backend from a cold round 1.
func RunBackend(ctx context.Context, cfg Config, scheme string, b Backend) (*Result, error) {
	return RunBackendFrom(ctx, cfg, scheme, b, nil)
}

// RunBackendFrom is RunBackend continued from a State instead of a cold
// round 1 (nil runs cold): a warm seed (WarmState), or a round boundary
// a run saved — one that is Done rebuilds the result without evaluating
// anything. The run's first save (Config.Save) is its starting state,
// made before round 1 evaluates, so it replaces whatever an earlier run
// left: a run killed in its first round continues from its own start,
// never from another run's state.
func RunBackendFrom(ctx context.Context, cfg Config, scheme string, b Backend, from *State) (*Result, error) {
	plan, err := NewRoundPlan(cfg, scheme)
	if err != nil {
		return nil, err
	}
	d := newRoundDriver(plan)
	if from != nil {
		if err := d.seed(from); err != nil {
			return nil, err
		}
	}
	if err := d.save(); err != nil {
		return nil, err
	}
	if !d.Done() {
		if err := driveRounds(ctx, b, plan, d); err != nil {
			return nil, err
		}
	}
	return d.finish(), nil
}

// driveRounds delegates to the backend and unifies the cancellation
// error path: every backend — in-process or distributed — surfaces
// cancellation racing a round boundary as the bare ctx.Err(), never a
// wrapped internal error, so callers can select on context.Canceled /
// context.DeadlineExceeded regardless of the backend in use.
func driveRounds(ctx context.Context, b Backend, plan *RoundPlan, d *RoundDriver) error {
	err := b.RunRounds(ctx, plan, d)
	if err == nil {
		return nil
	}
	if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
		return ctxErr
	}
	return err
}
