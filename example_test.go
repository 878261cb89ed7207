package cem_test

import (
	"context"
	"fmt"
	"log"
	"runtime"

	cem "repro"
)

// ExampleNew demonstrates the standard pipeline: generate a corpus,
// wire an experiment, run maximal message passing through a Runner, and
// evaluate.
func ExampleNew() {
	dataset := cem.NewDataset(cem.DBLP, 0.2, 7)
	exp, err := cem.New(dataset)
	if err != nil {
		log.Fatal(err)
	}
	runner, err := exp.Runner(cem.MatcherMLN)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	res, err := runner.Run(ctx, cem.SchemeMMP)
	if err != nil {
		log.Fatal(err)
	}
	full, err := runner.Run(ctx, cem.SchemeFull)
	if err != nil {
		log.Fatal(err)
	}
	// MMP reproduces the (normally infeasible) full run exactly.
	fmt.Println("mmp equals full:", res.Matches.Equal(full.Matches))
	// Output:
	// mmp equals full: true
}

// ExampleRunner_Run shows the scheme progression of the paper's §2.2:
// more message passing never loses matches. Parallelism does not change
// any output (consistency, Theorems 2 and 4).
func ExampleRunner_Run() {
	exp, err := cem.New(cem.NewDataset(cem.DBLP, 0.2, 7))
	if err != nil {
		log.Fatal(err)
	}
	runner, err := exp.Runner(cem.MatcherMLN,
		cem.WithParallelism(runtime.NumCPU()))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	nomp, _ := runner.Run(ctx, cem.SchemeNoMP)
	smp, _ := runner.Run(ctx, cem.SchemeSMP)
	mmp, _ := runner.Run(ctx, cem.SchemeMMP)
	fmt.Println("nomp ⊆ smp:", nomp.Matches.Subset(smp.Matches))
	fmt.Println("smp ⊆ mmp:", smp.Matches.Subset(mmp.Matches))
	// Output:
	// nomp ⊆ smp: true
	// smp ⊆ mmp: true
}
