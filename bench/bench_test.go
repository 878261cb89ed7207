package main

import (
	"regexp"
	"slices"
	"testing"
)

// TestSmoke runs every workload in both modes at smoke size. The program
// takes its metric names and units from BENCHMARK.json, so what is held here
// is that the file declares exactly the program's workloads and well-formed
// metrics, that every declared end-to-end metric is actually measured (run
// fails otherwise) and never 0, and that no operation fails.
func TestSmoke(t *testing.T) {
	decl, err := readBenchmarkJSON("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range decl.Workloads {
		declared = append(declared, w.Name)
	}
	slices.Sort(declared)
	if !slices.Equal(declared, workloadNames()) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the program has %v", declared, workloadNames())
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, m := range slices.Concat(decl.EndToEnd, decl.PerLayer) {
		if !nameOK.MatchString(m.Name) || m.Unit == "" {
			t.Errorf("BENCHMARK.json: metric %q (unit %q) is malformed", m.Name, m.Unit)
		}
	}
	for _, w := range declared {
		for _, traced := range []bool{false, true} {
			e := &env{workload: w, seed: 42, seconds: 1, traced: traced, smoke: true, root: "..", procs: 2, samples: map[string][]float64{}}
			res, err := e.run()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d operations failed", w, traced, res.Correct, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, m.Value)
				}
			}
			if traced && res.Metrics["cem.trace_overhead_ratio"].Value <= 0 {
				t.Errorf("%s: cem.trace_overhead_ratio was not measured", w)
			}
		}
	}
}
