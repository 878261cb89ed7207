package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Job is the outcome of one neighborhood evaluation: the unit a backend's
// Map side hands to the driver's Reduce.
type Job struct {
	id int32
	// The match set, as what the plan's evidence is made of: ids holds
	// candidate ids (all of a dense matcher's output), keys the pairs
	// outside the candidate table (all of any other matcher's). Both
	// ascending.
	ids     []int32
	keys    []PairKey
	msgs    [][]Pair // maximal messages (MMP rounds only)
	active  int      // active decisions at evaluation time
	dur     time.Duration
	calls   int  // matcher calls (1 + conditioned probes for MMP)
	skipped bool // re-activation discharged without a matcher call
}

// Skipped reports whether the re-activation was discharged without a
// matcher call (see RunStats.Skips).
func (j *Job) Skipped() bool { return j.skipped }

// ActiveDecisions is the number of in-scope candidate pairs the evidence
// had not decided when the job ran (its RunStats.ActiveSizes entry).
func (j *Job) ActiveDecisions() int { return j.active }

// Duration is the measured wall time of the job's matcher work.
func (j *Job) Duration() time.Duration { return j.dur }

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
// of the plan and safe to call concurrently.
//
// A dense matcher is evaluated in id form, start to finish. Any other
// matcher gets the evidence's overflow set — all of it, under an empty
// table — and its output is brought into engine form here, the one place
// a match set is sorted.
func (p *RoundPlan) Evaluate(id int32, evidence *Evidence, allowSkip bool) Job {
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
	if p.dense != nil {
		j.ids = p.dense.MatchIDs(entities, evidence, p.negative)
		if p.WithMessages {
			j.msgs, probes = p.denseProb.MaximalMessagesIDs(entities, evidence, p.negative, j.ids)
		}
	} else {
		pos := evidence.Overflow()
		mc := cfg.Matcher.Match(entities, pos, cfg.Negative)
		if p.WithMessages {
			j.msgs, probes = ComputeMaximal(p.Prob, entities, pos, cfg.Negative, mc)
		}
		j.keys = mc.SortedKeys()
	}
	j.calls += probes
	j.dur = time.Since(t0)
	return j
}

// MapRound evaluates the round's active set concurrently, on at most
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
func (d *RoundDriver) MapRound(ctx context.Context, workers int) ([]Job, error) {
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
