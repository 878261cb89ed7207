// Distributed: multi-process matching on the sharded backend, with
// a worker killed mid-run. A coordinator owns the central reduce; K
// workers each rebuild the round plan from their own configuration and
// evaluate partition assignments delivered over the wire codec. The
// coordinator supervises the fleet — heartbeats, round deadlines,
// bounded retries — and when a worker dies it reassigns that worker's
// partitions to the survivors. Because rounds are deterministic and a
// round commits only when every partition is accounted exactly once,
// the interrupted fleet lands on the exact match set of the
// uninterrupted single-process run; what the failure cost shows up only
// in the resilience counters.
//
// The kill here is simulated deterministically with the internal
// fault-injection harness (the worker's stream is severed right after
// it receives round 2's assignment — the SIGKILL-between-heartbeats
// shape). scripts/chaos-smoke.sh runs the same scenario with real
// emworker OS processes and a real SIGKILL. Run with:
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"

	cem "repro"
	"repro/internal/core"
	emnet "repro/internal/net"
	"repro/internal/net/faultnet"
)

func main() {
	exp, err := cem.New(cem.NewDataset(cem.HEPTH, 0.25, 42))
	if err != nil {
		log.Fatal(err)
	}
	runner, err := exp.Runner(cem.MatcherMLN)
	if err != nil {
		log.Fatal(err)
	}

	// Reference: an uninterrupted run on the default pool backend.
	want, err := runner.Run(context.Background(), cem.SchemeSMP)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("single-process reference: %d matches\n", want.Matches.Len())

	// The same experiment on a 3-worker fleet, with worker 1 killed the
	// moment it receives its round-2 assignment and never allowed back.
	cfg := core.Config{
		Cover:    exp.Cover,
		Matcher:  runner.Matcher(),
		Relation: exp.Dataset.Coauthor(),
	}
	inj := faultnet.New(faultnet.Plan{
		Seed:        1,
		KillAtRound: map[int]int{1: 2},
		Permadead:   true,
	})
	backend := &emnet.Backend{Workers: 3, Opts: emnet.Options{
		Spawn: inj.Spawner(emnet.LocalSpawner(cfg, "SMP", emnet.WorkerOptions{Wrap: inj.WrapWorker})),
	}}

	distRunner, err := exp.Runner(cem.MatcherMLN, cem.WithBackend(backend))
	if err != nil {
		log.Fatal(err)
	}
	got, err := distRunner.Run(context.Background(), cem.SchemeSMP)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("3-worker fleet, one killed at round 2: %d matches\n", got.Matches.Len())
	fmt.Printf("worker 1 killed: %v; partitions reassigned: %d; late batches dropped: %d\n",
		inj.Killed(1), got.Stats.Reassignments, got.Stats.LateBatchesDropped)

	if !got.Matches.Equal(want.Matches) {
		log.Fatal("outputs diverge — the consistency theorems say this cannot happen")
	}
	fmt.Println("match sets identical: losing a worker cost throughput, not correctness")
}
