// Package grid simulates the clock of the parallel, rounds-based
// execution described in §6.3: every round, the active neighborhoods are
// processed in parallel (a Map job), the new evidence is collected
// centrally (a Reduce job), and the next round's active set is derived
// from the affected neighborhoods. The paper ran this on a 30-machine
// Hadoop grid; here the *execution* is the engine's own (the round
// driver's pool map and central reduce) while the *grid clock* is
// simulated: jobs are randomly assigned to G virtual machines, each
// machine's round time is the sum of its jobs' service times, and a round
// costs the maximum machine time plus a fixed scheduling overhead. Random
// assignment skew plus per-round overhead is exactly the mechanism the
// paper gives for observing ~11× (not 30×) speedup on 30 machines
// (Table 1).
package grid

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
)

// Config controls the simulated grid.
type Config struct {
	// Machines is the number of simulated grid machines (the paper: 30).
	Machines int
	// RoundOverhead is the fixed per-round scheduling cost added to the
	// simulated clock (mapper/reducer setup on Hadoop).
	RoundOverhead time.Duration
	// Seed drives the random job-to-machine assignment.
	Seed int64
	// Workers bounds real goroutine parallelism; 0 means GOMAXPROCS.
	Workers int
	// ServiceModel, when set, maps a job's active decision count (its
	// in-scope candidate pairs not yet decided by evidence) to the
	// simulated service time charged to its machine. When nil, the
	// measured wall time of the job is charged instead. The model lets
	// the simulated grid reflect the steeply superlinear cost of the
	// paper's Alchemy-based matcher, which our exact solver does not
	// have; real execution is unaffected.
	ServiceModel func(active int) time.Duration
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Machines <= 0 {
		return fmt.Errorf("grid: Machines = %d, want > 0", c.Machines)
	}
	if c.RoundOverhead < 0 {
		return fmt.Errorf("grid: negative RoundOverhead")
	}
	if c.Workers < 0 {
		return fmt.Errorf("grid: negative Workers")
	}
	return nil
}

// Result is the outcome of a grid run.
type Result struct {
	Scheme  string
	Matches core.PairSet
	Rounds  int
	// SimulatedGridTime is the simulated wall clock on Machines machines:
	// Σ over rounds of (max machine load + overhead).
	SimulatedGridTime time.Duration
	// SimulatedSingleTime is the simulated single-machine wall clock:
	// the sum of every job's service time (one machine does all the work,
	// with one scheduling overhead per round).
	SimulatedSingleTime time.Duration
	// Speedup = SimulatedSingleTime / SimulatedGridTime.
	Speedup float64
	// JobsRun counts neighborhood evaluations across all rounds — the
	// run's RunStats.Evaluations. Re-activations discharged without a
	// matcher call (RunStats.Skips) are not jobs and cost no service time.
	JobsRun int
	// RealElapsed is the actual wall-clock time of the run.
	RealElapsed time.Duration
}

func (r *Result) String() string {
	return fmt.Sprintf("%s: rounds=%d jobs=%d grid=%v single=%v speedup=%.1f",
		r.Scheme, r.Rounds, r.JobsRun, r.SimulatedGridTime, r.SimulatedSingleTime, r.Speedup)
}

// Backend runs a scheme's rounds on the driver's shared-memory pool map
// and keeps the simulated grid clock of what it saw. A Backend times one
// run; read the clock with Result afterwards.
type Backend struct {
	cfg   Config
	rng   *rand.Rand
	clock Result
}

// NewBackend validates the configuration and builds the backend.
func NewBackend(cfg Config) (*Backend, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Backend{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// RunRounds implements core.Backend: every round is one Map job over the
// active set against the round-start evidence snapshot, then the central
// reduce; in between, the round's jobs are randomly assigned to the
// simulated machines and the round's makespan is charged to the clock.
func (b *Backend) RunRounds(ctx context.Context, _ *core.RoundPlan, d *core.RoundDriver) error {
	workers := b.cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	load := make([]time.Duration, b.cfg.Machines)
	for !d.Done() {
		jobs, err := d.MapRound(ctx, workers)
		if err != nil {
			return err
		}
		clear(load)
		var total time.Duration
		for i := range jobs {
			j := &jobs[i]
			if j.Skipped() {
				continue
			}
			service := j.Duration()
			if b.cfg.ServiceModel != nil {
				service = b.cfg.ServiceModel(j.ActiveDecisions())
			}
			load[b.rng.Intn(len(load))] += service
			total += service
			b.clock.JobsRun++
		}
		b.clock.Rounds++
		b.clock.SimulatedGridTime += slices.Max(load) + b.cfg.RoundOverhead
		b.clock.SimulatedSingleTime += total + b.cfg.RoundOverhead
		if err := d.FinishRound(jobs); err != nil {
			return err
		}
	}
	return nil
}

// Result reports the simulated clock together with the output of the
// run the backend executed.
func (b *Backend) Result(run *core.Result) *Result {
	res := b.clock
	res.Scheme, res.Matches, res.RealElapsed = run.Scheme, run.Matches, run.Stats.Elapsed
	if res.SimulatedGridTime > 0 {
		res.Speedup = float64(res.SimulatedSingleTime) / float64(res.SimulatedGridTime)
	}
	return &res
}
