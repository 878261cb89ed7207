// Checkpoint: fault-tolerant matching on the sharded backend. The run
// partitions the cover across workers that exchange evidence only as
// serialized batches (the paper's distributed map/reduce rounds, §6.3),
// and persists a checkpoint after every round. We then simulate
// a worker loss — the run is killed mid-flight via context cancellation
// — and resume it from the on-disk trail: the resumed run lands on the
// exact match set an uninterrupted run produces, because rounds are
// deterministic and the trail replays their evidence deltas.
//
// Only the public cem and match packages are used. Run with:
//
//	go run ./examples/checkpoint
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"

	cem "repro"
	"repro/match"
)

func main() {
	dir, err := os.MkdirTemp("", "cem-checkpoint-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	exp, err := cem.New(cem.NewDataset(cem.HEPTH, 0.25, 42))
	if err != nil {
		log.Fatal(err)
	}

	// Reference: an uninterrupted run on the default pool backend.
	plain, err := exp.Runner(cem.MatcherMLN)
	if err != nil {
		log.Fatal(err)
	}
	want, err := plain.Run(context.Background(), cem.SchemeSMP)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reference run:   %d matches\n", want.Matches.Len())

	// The same run, sharded 4 ways and checkpointed — killed as soon as
	// the second round starts reducing.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killed, err := exp.Runner(cem.MatcherMLN,
		cem.WithShardCount(4),
		cem.WithCheckpointDir(dir),
		cem.WithProgress(func(e match.ProgressEvent) {
			if e.Round == 2 {
				cancel() // simulated worker loss
			}
		}),
	)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := killed.Run(ctx, cem.SchemeSMP); errors.Is(err, context.Canceled) {
		trail, _ := filepath.Glob(filepath.Join(dir, "round-*.ckpt"))
		fmt.Printf("killed mid-run:  %d round checkpoint(s) on disk\n", len(trail))
	} else if err != nil {
		log.Fatal(err)
	} else {
		fmt.Println("run finished before the kill landed (tiny corpus) — resuming anyway")
	}

	// Resume from the trail. The restart replays the persisted evidence
	// deltas and re-executes only the unfinished rounds.
	resumer, err := exp.Runner(cem.MatcherMLN,
		cem.WithShardCount(4),
		cem.WithCheckpointDir(dir),
	)
	if err != nil {
		log.Fatal(err)
	}
	got, err := resumer.Resume(context.Background(), cem.SchemeSMP)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed run:     %d matches\n", got.Matches.Len())

	if got.Matches.Equal(want.Matches) {
		fmt.Println("resumed output is identical to the uninterrupted run ✓")
	} else {
		log.Fatal("resumed output diverged — this should be impossible")
	}
}
