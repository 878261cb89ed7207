// Command bench is the repository's benchmark: five named workloads over
// the collective entity matcher, measured end to end (tracing off) and layer
// by layer (one traced run whose stages sum to the end-to-end figure).
// BENCHMARK.json at the repository root declares the command, the workloads
// and every metric; README.md in this directory says why each was chosen.
//
//	bash bench/run.sh --workload hepth-cold --seed 42 --seconds 20 --trace 0
//	bash bench/run.sh                          # every workload, both modes
//	bash bench/run.sh -compare A.json B.json   # relative differences vs bounds
//
// One workload run prints every metric by name with its unit, checks the
// program's outputs, writes bench/out/result-<workload>-trace<0|1>.json and
// ends its standard output with one JSON object {correct, attempted, failed,
// metrics}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"
)

// maxProcs caps load-generating goroutines/connections and GOMAXPROCS.
const maxProcs = 4

func main() {
	var (
		name    = flag.String("workload", "", "workload to run; empty runs every workload in both modes")
		seed    = flag.Int64("seed", 42, "workload seed: every input is derived from it")
		seconds = flag.Float64("seconds", refSeconds, "length of the run the pool of corpora is sized for")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from staged, traced runs")
		smoke   = flag.Bool("smoke", false, "tiny corpora, one repetition (for the smoke test)")
		compare = flag.Bool("compare", false, "compare two summary files: -compare A.json B.json")
		out     = flag.String("out", "", "summary file written by the all-workloads run (default bench/out/summary.json)")
	)
	flag.Parse()

	// Pinned so results from different machines and shells are comparable,
	// and recorded in the machine label.
	procs := min(runtime.NumCPU(), maxProcs)
	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(100)

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two summary files"))
		}
		ok, err := compareSummaries(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *name == "":
		if *out == "" {
			*out = filepath.Join("bench", "out", "summary.json")
		}
		ok, err := runAll(*out, *seed, *seconds, *smoke)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		e := &env{
			workload: *name, seed: *seed, seconds: *seconds, traced: *trace != 0,
			smoke: *smoke, root: ".", procs: procs, samples: map[string][]float64{},
		}
		res, err := e.run()
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(2)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a workload run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is one workload run: its inputs, the samples it collects and the
// operations it counts.
type env struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	smoke    bool
	root     string // the repository root: "." for the program, which run.sh starts there; ".." for the smoke test
	procs    int    // GOMAXPROCS, and the shards, workers and connections a workload uses

	tr      *tracer
	samples map[string][]float64 // metric name → samples; the median is reported (measurePool sets one value)

	attempted, failed int
	pool, passes      int      // corpora measured and passes over them
	outputs           []string // canonical match rendering of each corpus of the pool
}

// add records one sample of a metric.
func (e *env) add(name string, v float64) { e.samples[name] = append(e.samples[name], v) }

// set records a metric that has exactly one value per run.
func (e *env) set(name string, v float64) { e.samples[name] = []float64{v} }

// check counts one operation and reports a failed one on standard error.
func (e *env) check(ok bool, format string, args ...any) {
	e.attempted++
	if !ok {
		e.failed++
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED: %s\n", e.workload, fmt.Sprintf(format, args...))
	}
}

// corpusSeed derives the generator seed of the i-th corpus of this run's
// pool: a run reports the typical cost over a population of corpora rather
// than the cost of one draw (see README, "Steadiness").
func (e *env) corpusSeed(i int) int64 {
	x := uint64(e.seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x >> 1)
}

// A run's length is fixed by its flags, never by what it measures, so both
// sides of a comparison take the same samples: the untraced measurement
// walks its pool passes times, and pool sizes are given for a window of
// refSeconds and scale with --seconds.
const (
	passes     = 3
	refSeconds = 20.0
)

// poolSize is the number of corpora a run measures, from the size chosen for
// refSeconds.
func (e *env) poolSize(atRef int) int {
	if e.smoke {
		return min(atRef, 2)
	}
	return max(2, int(math.Round(float64(atRef)*e.seconds/refSeconds)))
}

// measurePool is the untraced measurement: a pool of corpora is measured
// pass after pass. rep(i, pass) runs the operation on corpus i and returns
// its metric values; a metric is reported as the mean over the pool of each
// corpus's best pass. The best of several passes, seconds apart, drops the
// episodes in which a shared machine runs slow; the mean over many corpora
// drops the luck of one corpus draw (see README, "Steadiness").
func (e *env) measurePool(atRef int, rep func(i, pass int) (map[string]float64, error)) error {
	e.pool, e.passes = e.poolSize(atRef), passes
	if e.smoke {
		e.passes = 1
	}
	best := map[string][]float64{}
	start := time.Now()
	for pass := 0; pass < e.passes; pass++ {
		for i := 0; i < e.pool; i++ {
			vals, err := rep(i, pass)
			if err != nil {
				return err
			}
			for name, v := range vals {
				if pass == 0 {
					best[name] = append(best[name], v)
				} else if v < best[name][i] {
					best[name][i] = v
				}
			}
		}
		fmt.Fprintf(os.Stderr, "bench: %s: pass %d over %d corpora ended at %.1fs: op_wall_s %.6g\n",
			e.workload, pass+1, e.pool, time.Since(start).Seconds(), mean(best["op_wall_s"]))
	}
	for name, b := range best {
		e.set(name, mean(b))
	}
	return nil
}

// tracePool is the traced measurement: one pass over its pool, rep recording
// its own samples.
func (e *env) tracePool(atRef int, rep func(i int) error) error {
	e.pool, e.passes = e.poolSize(atRef), 1
	for i := 0; i < e.pool; i++ {
		if err := rep(i); err != nil {
			return err
		}
	}
	return nil
}

func (e *env) run() (*result, error) {
	w, ok := workloads[e.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", e.workload, workloadNames())
	}
	// BENCHMARK.json is the one declaration of metric names and units.
	b, err := readBenchmarkJSON(filepath.Join(e.root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	decls := b.EndToEnd
	if e.traced {
		decls = b.PerLayer
		e.tr = newTracer(e.workload)
	}
	if err := os.MkdirAll(e.outDir(), 0o755); err != nil {
		return nil, err
	}
	if err := w(e); err != nil {
		return nil, fmt.Errorf("%s: %w", e.workload, err)
	}
	if e.tr != nil {
		if err := e.tr.write(filepath.Join(e.outDir(), "trace-"+e.workload+".json")); err != nil {
			return nil, err
		}
	}

	declared := map[string]bool{}
	for _, d := range slices.Concat(b.EndToEnd, b.PerLayer) {
		declared[d.Name] = true
	}
	for name := range e.samples {
		if !declared[name] {
			return nil, fmt.Errorf("%s: metric %s is measured but not declared in BENCHMARK.json", e.workload, name)
		}
	}
	res := &result{Attempted: e.attempted, Failed: e.failed, Metrics: map[string]metric{}}
	for _, d := range decls {
		s, ok := e.samples[d.Name]
		if !ok && !e.traced {
			return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", e.workload, d.Name)
		}
		// A per-layer metric of a layer this workload does not exercise
		// reads 0: the layer did no work here.
		res.Metrics[d.Name] = metric{Value: median(s), Unit: d.Unit}
		n := fmt.Sprintf("n=%d", len(s))
		if !e.traced {
			n = fmt.Sprintf("n=%d corpora x %d passes", e.pool, e.passes)
		}
		fmt.Printf("%-34s %14.6g %-8s %s\n", d.Name, median(s), d.Unit, n)
	}
	res.Correct = e.failed == 0
	return res, e.writeResult(res)
}

func (e *env) outDir() string { return filepath.Join(e.root, "bench", "out") }

// writeResult keeps the full record of a run — the label of the machine,
// sample counts, the output digest — next to the traces.
func (e *env) writeResult(res *result) error {
	n := map[string]int{}
	for name, s := range e.samples {
		n[name] = len(s)
	}
	mode := 0
	if e.traced {
		mode = 1
	}
	doc := map[string]any{
		"workload": e.workload, "trace": mode, "seed": e.seed, "seconds": e.seconds, "smoke": e.smoke,
		"machine": machineLabel(e.root), "samples": n, "pool": e.pool, "passes": e.passes, "digest": e.digest(), "result": res,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.outDir(), fmt.Sprintf("result-%s-trace%d.json", e.workload, mode)), append(data, '\n'), 0o644)
}

// workloads maps each workload name to its driver. The names are fixed:
// later issues refer to them.
var workloads = map[string]func(*env) error{
	"hepth-cold":    hepthCold.run,
	"dblp-cold":     dblpCold.run,
	"people-cold":   peopleCold.run,
	"hepth-schemes": runSchemes,
	"serve-ingest":  runServe,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
