// Parallelgrid: run the framework with the simulated grid of §6.3 as
// its backend — the engine's own rounds, timed on a clock of simulated
// machines — and reproduce the Table 1 observation that speedup stays
// well below the machine count because of assignment skew and per-round
// overhead. Contrast with cem.WithParallelism, which only parallelizes
// on shared memory; the grid additionally models the distributed clock.
//
// Run with:
//
//	go run ./examples/parallelgrid
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	cem "repro"
)

func main() {
	// A larger corpus in the DBLP-BIG regime (§6.3 used 4.6M references
	// on 30 machines; scale up the factor below to stress your machine).
	dataset := cem.NewDataset(cem.DBLPBig, 0.15, 9)
	fmt.Printf("dataset: %s\n", dataset.ComputeStats())

	exp, err := cem.New(dataset)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cover:   %s\n\n", exp.Cover.ComputeStats())

	runner, err := exp.Runner(cem.MatcherMLN)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// Simulated service times follow the Alchemy-like quadratic cost
	// model (see EXPERIMENTS.md): 1ms per active decision squared. Our
	// exact solver finishes jobs in microseconds, which would leave the
	// simulated clocks dominated by scheduling overhead.
	model := func(active int) time.Duration {
		return time.Duration(active*active) * time.Millisecond
	}
	for _, machines := range []int{1, 5, 30} {
		gcfg := cem.GridConfig{
			Machines:      machines,
			RoundOverhead: 200 * time.Millisecond,
			Seed:          1,
			ServiceModel:  model,
		}
		res, err := runner.RunGrid(ctx, cem.SchemeSMP, gcfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("machines=%-3d rounds=%d  grid=%-12v single=%-12v speedup=%.1f\n",
			machines, res.Rounds,
			res.SimulatedGridTime.Round(time.Millisecond),
			res.SimulatedSingleTime.Round(time.Millisecond),
			res.Speedup)
	}

	fmt.Println("\nspeedup < machines: random assignment skews per-machine load and")
	fmt.Println("every round pays a scheduling overhead — the Table 1 mechanism.")

	// The grid is one more placement of the same rounds: its output is
	// the default pool's.
	seq, err := runner.Run(ctx, cem.SchemeSMP)
	if err != nil {
		log.Fatal(err)
	}
	par, err := runner.RunGrid(ctx, cem.SchemeSMP,
		cem.GridConfig{Machines: 30, Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nconsistency: pool SMP %d matches, grid SMP %d matches, equal=%v\n",
		seq.Matches.Len(), par.Matches.Len(), seq.Matches.Equal(par.Matches))
}
