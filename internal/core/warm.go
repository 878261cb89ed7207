package core

import (
	"context"
	"fmt"
	"slices"
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

// validate checks the seed against the plan it will drive.
func (w *WarmStart) validate(plan *RoundPlan) error {
	n := plan.Config.Cover.NumEntities
	for _, k := range w.Evidence {
		if p := k.Pair(); !p.ValidOver(n) {
			return fmt.Errorf("core: warm-start evidence pair %v invalid over %d entities", p, n)
		}
	}
	if len(w.Messages) > 0 && !plan.WithMessages {
		return fmt.Errorf("core: warm start carries maximal messages but scheme %s exchanges none", plan.Scheme)
	}
	for _, msg := range w.Messages {
		for _, p := range msg {
			if !p.ValidOver(n) {
				return fmt.Errorf("core: warm-start message pair %v invalid over %d entities", p, n)
			}
		}
	}
	for _, id := range w.Active {
		if id < 0 || int(id) >= plan.Config.Cover.Len() {
			return fmt.Errorf("core: warm-start active id %d out of range [0,%d)", id, plan.Config.Cover.Len())
		}
	}
	return nil
}

// seed installs the warm state into a freshly initialized driver: the
// evidence becomes the accumulated match set, outstanding messages
// refill the store, and the active set replaces the all-neighborhoods
// round 1. The driver's round counter is set to 1 — the continuation's
// first round is a re-activation round (round 2), so undecided-free
// neighborhoods may be discharged as skips — and, when checkpointing,
// the seed itself is persisted as the trail's round-1 record: a
// warm-started trail is indistinguishable from a cold one and resumes
// through the ordinary checkpoint path.
func (d *RoundDriver) seed(w *WarmStart) error {
	if err := w.validate(d.plan); err != nil {
		return err
	}
	for _, k := range w.Evidence {
		d.ev.AddKey(k)
	}
	d.roundMark = d.ev.Mark()
	for _, msg := range w.Messages {
		d.store.Add(msg)
	}
	active := slices.Clone(w.Active)
	slices.Sort(active)
	d.active = slices.Compact(active)
	d.round = 1
	d.done = len(d.active) == 0
	if d.ckpt != nil || d.plan.Config.Evidence != nil {
		delta := d.ev.SortedKeys()
		// The store restarts from the seed, mirroring the trail's
		// round-1 record.
		if err := resetEvidence(d.plan.Config.Evidence, delta); err != nil {
			return err
		}
		if d.ckpt != nil {
			if err := d.ckpt.write(d, delta); err != nil {
				return err
			}
		}
	}
	return nil
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
		if err := d.seed(warm); err != nil {
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
