package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value of s (the mean of the middle two), or 0
// for an empty slice.
func median(s []float64) float64 { return quantile(s, 0.5) }

// quantile returns the q-th quantile of s by linear interpolation between
// order statistics, or 0 for an empty slice.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(pos)
	if lo+1 >= len(c) {
		return c[len(c)-1]
	}
	return c[lo] + (pos-float64(lo))*(c[lo+1]-c[lo])
}

func sum(s []float64) float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// mean returns the arithmetic mean of s, or 0 for an empty slice.
func mean(s []float64) float64 { return ratio(sum(s), float64(len(s))) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work has no ratio).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuSeconds is the user+system CPU time this process has used so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set so far (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cost is what one timed call used.
type cost struct {
	wall, cpu float64 // seconds
	allocMB   float64 // heap bytes allocated, MiB
	gcs       float64 // collections completed
}

// timed runs f and returns what it used. A collection first puts the heap
// and the collector's pacing in the same state before every operation,
// whatever ran before it — as in the fresh process a cold run starts in — so
// the timing does not depend on where the previous operation left the
// collector. The memory counters are read outside the timed interval.
func timed(f func() error) (cost, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuSeconds(), time.Now()
	err := f()
	c := cost{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - c0}
	runtime.ReadMemStats(&m1)
	c.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	c.gcs = float64(m1.NumGC - m0.NumGC)
	return c, err
}

// setUp runs one repetition's set-up n times, each after a collection, and
// returns the median wall: a set-up of a millisecond, timed once right after
// the previous operation, reads anything between 1× and 3× (see README,
// "Steadiness"). undo, when set, runs un-timed between two set-ups.
func setUp(n int, f func() error, undo func()) (float64, error) {
	walls := make([]float64, n)
	for k := range walls {
		if k > 0 && undo != nil {
			undo()
		}
		c, err := timed(f)
		if err != nil {
			return 0, err
		}
		walls[k] = c.wall
	}
	return median(walls), nil
}

// machineLabel describes where a result was measured; it is written into
// every result and summary file.
func machineLabel(root string) map[string]any {
	label := map[string]any{
		"cpu": "unknown", "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "os": runtime.GOOS + "/" + runtime.GOARCH, "gogc": 100, "commit": "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				label["cpu"] = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// A checkout that is not a git repository keeps "unknown".
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
			label["commit"] = strings.TrimSpace(string(out))
		}
	}
	return label
}
