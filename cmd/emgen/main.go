// Command emgen generates the synthetic corpora used by the experiments
// and writes them as a records TSV (a reference a line: paper as group,
// true author as gold label, name), the corpus file emmatch, emworker and
// emserve read. With -stats it prints their statistics instead.
//
// Usage:
//
//	emgen -kind hepth -scale 1.0 -seed 42 -out hepth.tsv
//	emgen -kind dblp -stats
package main

import (
	"flag"
	"fmt"
	"os"

	cem "repro"
	"repro/internal/bib"
	"repro/internal/canopy"
)

func main() {
	var (
		kind  = flag.String("kind", "hepth", "corpus kind: hepth | dblp | dblp-big | million | people")
		scale = flag.Float64("scale", 1.0, "size multiplier (1.0 ≈ a few thousand references)")
		seed  = flag.Int64("seed", 42, "generation seed (deterministic output)")
		out   = flag.String("out", "", "output file (default: stdout; - for stdout)")
		stats = flag.Bool("stats", false, "print dataset and cover statistics instead of the records")
	)
	flag.Parse()

	d, err := cem.GenerateDataset(cem.DatasetKind(*kind), *scale, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "emgen: %v\n", err)
		os.Exit(2)
	}

	if *stats {
		fmt.Printf("dataset %s: %s\n", d.Name, d.ComputeStats())
		cover := canopy.BuildCover(d, canopy.DefaultConfig())
		fmt.Printf("cover: %s\n", cover.ComputeStats())
		fmt.Printf("candidate pairs: %d\n", len(canopy.CandidatePairs(d, cover)))
		return
	}

	w := os.Stdout
	if *out != "" && *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "emgen: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "emgen: close: %v\n", err)
				os.Exit(1)
			}
		}()
		w = f
	}
	if err := bib.WriteRecords(w, d.Name, bib.ToRecords(d)); err != nil {
		fmt.Fprintf(os.Stderr, "emgen: %v\n", err)
		os.Exit(1)
	}
}
