package core

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/wire"
)

// WarmStart seeds a round-based run with the outcome of a previous run —
// the incremental-matching entry point. Evidence is the prior run's
// accumulated M+ (treated as committed positive evidence), Messages its
// outstanding maximal messages (MMP only), and Active the neighborhoods
// whose input changed since that run — typically the Affected set of an
// ingested delta. The continuation evaluates only the active seed and
// whatever it re-activates, instead of every neighborhood.
//
// For a well-behaved matcher whose output over a grown entity set can
// only grow (delta-monotonicity — both built-in matchers satisfy it),
// the warm fixpoint equals the cold fixpoint of a from-scratch run on
// the union, as long as Active covers every neighborhood whose entity
// set, candidate scope or adjacent evidence changed: unchanged
// neighborhoods are already at fixpoint under the seeded evidence, and
// any new match derived during the continuation re-activates its
// affected neighborhoods exactly like any other round delta.
type WarmStart struct {
	// Evidence is the prior M+ as packed pair keys (order irrelevant).
	Evidence []PairKey
	// Messages are the prior run's outstanding maximal messages; only
	// valid for schemes that exchange them (MMP).
	Messages [][]Pair
	// Active is the initial active set (ascending ids; duplicates are
	// tolerated and removed).
	Active []int32
}

// seed is the one installer of prior state into a freshly initialized
// driver, for a warm start and a checkpoint resume alike: the evidence
// becomes the accumulated match set, outstanding messages refill the
// store and the active set replaces the all-neighborhoods round 1. A
// resume (the state of a trail: Round > 0) also restores the trail's
// round counter, visits and stats.
// A warm start sets the round counter to 1 — the continuation's first
// round is a re-activation round (round 2), so undecided-free
// neighborhoods may be discharged as skips — and, when checkpointing,
// persists the seed as the trail's round-1 record: a warm-started trail
// is indistinguishable from a cold one and resumes through the ordinary
// checkpoint path.
func (d *RoundDriver) seed(st *State) error {
	cover, h := d.plan.Config.Cover, &st.Header
	if err := validPairs(st.Evidence, st.Messages, cover.NumEntities); err != nil {
		return err
	}
	if len(st.Messages) > 0 && !d.plan.WithMessages {
		return fmt.Errorf("core: seed carries maximal messages but scheme %s exchanges none", d.plan.Scheme)
	}
	for _, id := range h.Active {
		if id < 0 || int(id) >= cover.Len() {
			return fmt.Errorf("core: seed active id %d out of range [0,%d)", id, cover.Len())
		}
	}
	for _, k := range st.Evidence {
		d.ev.AddKey(k)
	}
	d.roundMark = d.ev.Mark()
	for _, msg := range st.Messages {
		d.store.Add(msg)
	}
	active := slices.Clone(h.Active)
	slices.Sort(active)
	d.active = slices.Compact(active)
	d.done = h.Done || len(d.active) == 0
	resumed := h.Round > 0
	if resumed {
		d.round, d.visits, d.res.Stats = h.Round, h.Visits, statsFromWire(&h.Stats)
		d.prior = d.res.Stats.Elapsed
	} else {
		d.round = 1
	}
	if d.trail == nil || resumed {
		return nil
	}
	return d.checkpoint(d.ev.SortedKeys())
}

// RunBackendFrom is RunBackend continued from a warm-start seed instead
// of a cold all-neighborhoods round 1 (a nil seed runs cold). A seed and
// ck.Resume exclude each other — a warm-started checkpointing run writes
// its seed as the trail's first record, and continuing THAT trail later
// is an ordinary resume.
func RunBackendFrom(ctx context.Context, cfg Config, scheme string, b Backend, ck CheckpointConfig, warm *WarmStart) (*Result, error) {
	if warm != nil && ck.Resume {
		return nil, fmt.Errorf("core: warm start and checkpoint resume are mutually exclusive (resume a warm-started trail with RunBackend)")
	}
	plan, err := NewRoundPlan(cfg, scheme)
	if err != nil {
		return nil, err
	}
	d, err := newRoundDriver(plan, ck)
	if err != nil {
		return nil, err
	}
	if warm != nil {
		st := &State{Evidence: warm.Evidence, Messages: warm.Messages, Header: wire.Checkpoint{Active: warm.Active}}
		if err := d.seed(st); err != nil {
			return nil, err
		}
	}
	if !d.Done() {
		if err := driveRounds(ctx, b, plan, d); err != nil {
			return nil, err
		}
	}
	return d.finish(), nil
}
