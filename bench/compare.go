package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkJSON is the part of BENCHMARK.json the benchmark itself reads.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(path string) (*benchmarkJSON, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

func readSummary(path string) (*summary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s summary
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareSummaries prints, per workload × end-to-end metric, how much worse
// B is than A as a share of A, and reports whether every difference is
// within the metric's bound. Every ratio is printed with its base.
func compareSummaries(w io.Writer, benchmarkPath, pathA, pathB string) (bool, error) {
	decl, err := readBenchmarkJSON(benchmarkPath)
	if err != nil {
		return false, err
	}
	a, err := readSummary(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSummary(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-14s %-12s %14s %14s %9s %7s\n", "workload", "metric", "A (base)", "B", "worse by", "bound")
	for _, wl := range decl.Workloads {
		ra, rb := a.Workloads[wl.Name].EndToEnd, b.Workloads[wl.Name].EndToEnd
		if ra == nil || rb == nil {
			return false, fmt.Errorf("workload %s is missing from a summary", wl.Name)
		}
		for _, m := range decl.EndToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			worse := ratio(vb-va, va)
			if m.Better == "higher" && worse != 0 {
				worse = -worse
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  EXCEEDS BOUND"
				ok = false
			}
			fmt.Fprintf(w, "%-14s %-12s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", wl.Name, m.Name, va, vb, 100*worse, 100*m.Bound, verdict)
		}
		if ra.Failed+rb.Failed > 0 {
			fmt.Fprintf(w, "%-14s failed operations: A %d of %d, B %d of %d\n", wl.Name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			ok = false
		}
	}
	return ok, nil
}
