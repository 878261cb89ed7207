// Quickstart: generate a small DBLP-like bibliography, scale the MLN
// collective matcher with maximal message passing, and print the
// precision/recall against ground truth. Shows the Runner API: a
// context-aware, concurrent executor built with functional options.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"

	cem "repro"
)

func main() {
	// A workstation-sized corpus: full author names with typo noise,
	// exact ground truth by construction.
	dataset := cem.NewDataset(cem.DBLP, 0.5, 7)
	fmt.Printf("dataset: %s\n", dataset.ComputeStats())

	// New builds the total cover (canopies + coauthor context), the
	// candidate pairs, and grounds the built-in matchers.
	exp, err := cem.New(dataset)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cover:   %s\n", exp.Cover.ComputeStats())
	fmt.Printf("pairs:   %d matching decisions\n\n", len(exp.Candidates))

	// A Runner binds one registered matcher ("mln" here; see
	// cem.Matchers() for all) to execution options. Each round's active
	// neighborhoods are evaluated on all cores; the output is identical
	// to a one-worker run (consistency, Theorems 2 and 4).
	runner, err := exp.Runner(cem.MatcherMLN,
		cem.WithParallelism(runtime.NumCPU()))
	if err != nil {
		log.Fatal(err)
	}

	// Run the three schemes of the paper and compare.
	ctx := context.Background()
	for _, scheme := range []cem.Scheme{cem.SchemeNoMP, cem.SchemeSMP, cem.SchemeMMP} {
		res, err := runner.Run(ctx, scheme)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s %v\n", scheme, exp.Evaluate(res))
	}

	// The UB oracle bounds what the full (infeasible at scale) run of the
	// matcher could achieve.
	ub, err := runner.Run(ctx, cem.SchemeUB)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-6s %v\n", "UB", exp.Evaluate(ub))
}
