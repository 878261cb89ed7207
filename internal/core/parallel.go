package core

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Job is the outcome of one neighborhood evaluation: the unit a backend's
// Map side hands to the driver's Reduce.
type Job struct {
	id      int32
	skipped bool // re-activation discharged without a matcher call
	// The matches the job's evidence lacked (those it held are in M+
	// already), in the form the plan's evidence takes: ids holds candidate
	// ids (a dense matcher's output), keys the pairs outside the candidate
	// table (any other matcher's). Both ascending. A sharded worker thus
	// ships only what its replica lacked, and Reduce walks only what may
	// be new.
	ids  []int32
	keys []PairKey
	// The maximal messages (MMP rounds only), split the same way: msgs in
	// candidate ids (a dense matcher's), pairMsgs as pairs (any other
	// matcher's, and every job decoded from the wire).
	msgs     *MessageIDs
	pairMsgs [][]Pair
	active   int // active decisions at evaluation time
	dur      time.Duration
	calls    int // matcher calls (1 + conditioned probes for MMP)
}

// Skipped reports whether the re-activation was discharged without a
// matcher call (see RunStats.Skips).
func (j *Job) Skipped() bool { return j.skipped }

// allNeighborhoods returns the ids 0..n-1.
func allNeighborhoods(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// Evaluate runs one neighborhood against an evidence set that is only
// read — the Map unit every backend executes, in-process against the
// driver's M+ or remotely against a private replica. MMP plans
// additionally run COMPUTEMAXIMAL; allowSkip discharges neighborhoods
// with no undecided in-scope pair without calling the matcher
// (re-activation rounds only; see RunStats.Skips). It is a read-only use
// of the plan and safe to call concurrently. The job lists only the
// matches the evidence lacks: by the Backend contract the evidence is
// part of M+ when the job is reduced, so the rest would change nothing.
//
// A dense matcher is evaluated in id form, start to finish — under MMP in
// one MatchMessagesIDs call, its messages a CSR of candidate ids. Any other
// matcher gets the evidence's overflow set — all of it, under an empty
// table — and its output is brought into engine form here, the one place
// a match set is sorted.
func (p *RoundPlan) Evaluate(id int32, evidence *Evidence, allowSkip bool) Job {
	return p.evaluate(id, evidence, allowSkip, nil)
}

// evaluate is Evaluate with a dense matcher's messages in arena, reset
// first and held by the job; nil gives the job a list of its own.
func (p *RoundPlan) evaluate(id int32, evidence *Evidence, allowSkip bool, arena *MessageIDs) Job {
	cfg := &p.Config
	entities := cfg.Cover.Sets[id]
	j := Job{id: id, calls: 1}
	if p.dense != nil {
		j.active = evidence.CountUnset(p.dense.ScopeIDs(entities))
	} else {
		j.active = activeDecisions(cfg.Matcher, entities, evidence.Overflow())
	}
	if allowSkip && j.active == 0 {
		return Job{id: id, skipped: true}
	}
	t0 := time.Now()
	var probes int
	switch {
	case p.denseProb != nil:
		if arena == nil {
			arena = new(MessageIDs)
		}
		arena.Reset()
		j.ids, probes = p.denseProb.MatchMessagesIDs(entities, evidence, p.negative, arena)
		j.msgs = arena
	case p.dense != nil:
		j.ids = p.dense.MatchIDs(entities, evidence, p.negative)
	default:
		pos := evidence.Overflow()
		mc := cfg.Matcher.Match(entities, pos, cfg.Negative)
		if p.WithMessages {
			j.pairMsgs, probes = ComputeMaximal(p.Prob, entities, pos, cfg.Negative, mc)
		}
		j.keys = mc.SortedKeys()
	}
	j.calls += probes
	j.dur = time.Since(t0)
	if evidence.Len() > 0 {
		// The lists are the job's own (fresh from the matcher by
		// contract), so they are compacted in place.
		j.ids = slices.DeleteFunc(j.ids, evidence.HasID)
		j.keys = slices.DeleteFunc(j.keys, evidence.HasKey)
	}
	return j
}

// mapRound evaluates the round's active set concurrently, on at most
// workers goroutines, against the round-start Snapshot — the Map side of
// a shared-memory round. The jobs come back in Active() order, ready for
// FinishRound. A canceled ctx aborts the round; started evaluations
// finish, queued ones are skipped.
//
// Workers claim runs of consecutive indices from a shared cursor: one
// atomic add per run, where a channel hand-off per id costs as much as a
// cheap evaluation. Runs stay short against the round (at least eight per
// worker), so a few large neighborhoods still spread over the workers;
// jobs[i] is positional, so the schedule is invisible in the result.
func (d *RoundDriver) mapRound(ctx context.Context, workers int) ([]Job, error) {
	ids := d.Active()
	jobs := make([]Job, len(ids))
	workers = max(1, min(workers, len(ids)))
	run := max(1, min(16, len(ids)/(8*workers)))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				hi := int(next.Add(int64(run)))
				for i := hi - run; i < min(hi, len(ids)); i++ {
					if ctx.Err() != nil {
						return
					}
					jobs[i] = d.Evaluate(ids[i])
				}
				if hi >= len(ids) {
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return jobs, nil
}
