package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// summary is what the all-workloads run writes and -compare reads.
type summary struct {
	Machine   map[string]any             `json:"machine"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]workloadSummary `json:"workloads"`
	// Claim is always null: the benchmark measures, it claims no gain.
	Claim any `json:"claim"`
}

type workloadSummary struct {
	EndToEnd *result `json:"end_to_end"`
	PerLayer *result `json:"per_layer"`
}

// runAll runs every workload untraced and traced, each in a child process
// of its own (peak RSS is per process, and the rules registry is global),
// and writes the summary. It reports whether every run was correct.
func runAll(out string, seed int64, seconds float64, smoke bool) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	decl, err := readBenchmarkJSON("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	sum := summary{Machine: machineLabel("."), Seed: seed, Seconds: seconds, Workloads: map[string]workloadSummary{}}
	ok := true
	for _, w := range decl.Workloads {
		var ws workloadSummary
		for _, traced := range []int{0, 1} {
			args := []string{"--workload", w.Name, "--seed", strconv.FormatInt(seed, 10), "--seconds",
				strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(traced)}
			if smoke {
				args = append(args, "-smoke")
			}
			fmt.Printf("== %s, trace %d\n", w.Name, traced)
			var stdout bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
			cmd.Stderr = os.Stderr
			runErr := cmd.Run()
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			res := &result{}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
				return false, fmt.Errorf("%s, trace %d: no result (%v)", w.Name, traced, runErr)
			}
			ok = ok && runErr == nil && res.Correct
			if traced == 0 {
				ws.EndToEnd = res
			} else {
				ws.PerLayer = res
			}
		}
		sum.Workloads[w.Name] = ws
	}
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return false, err
	}
	fmt.Printf("summary written to %s\n", out)
	return ok, os.WriteFile(out, append(data, '\n'), 0o644)
}
