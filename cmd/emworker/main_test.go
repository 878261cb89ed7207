package main

import (
	"context"
	"os"
	"strings"
	"syscall"
	"testing"

	cem "repro"
)

// TestFlagValidation pins the CLI's argument checks.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"whole-set scheme", []string{"-scheme", "full"}, "not round-based"},
		{"unknown scheme", []string{"-scheme", "zigzag"}, "not round-based"},
		{"unknown format", []string{"-format", "xml"}, "unknown -format"},
		{"unknown flag", []string{"-no-such-flag"}, "flag provided but not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errBuf strings.Builder
			err := run(tc.args, &out, &errBuf, nil, nil)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", tc.args, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) = %v, want error containing %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestWorkerServesCoordinator boots a real emworker on a TCP socket,
// attaches a coordinator to it through the public API, and asserts the
// distributed run reproduces the in-process pool run exactly. A SIGTERM
// then shuts the worker down cleanly.
func TestWorkerServesCoordinator(t *testing.T) {
	const (
		kind  = "hepth"
		scale = 0.2
		seed  = int64(7)
	)
	sigs := make(chan os.Signal, 1)
	ready := make(chan string, 1)
	done := make(chan error, 1)
	var out, errBuf strings.Builder
	go func() {
		done <- run([]string{
			"-listen", "127.0.0.1:0", "-kind", kind, "-scale", "0.2", "-seed", "7",
			"-scheme", "smp", "-matcher", "mln",
		}, &out, &errBuf, sigs, ready)
	}()
	addr := <-ready

	d, err := cem.GenerateDataset(cem.DatasetKind(kind), scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := cem.New(d)
	if err != nil {
		t.Fatal(err)
	}

	poolRunner, err := exp.Runner("mln")
	if err != nil {
		t.Fatal(err)
	}
	pool, err := poolRunner.Run(context.Background(), cem.SchemeSMP)
	if err != nil {
		t.Fatal(err)
	}

	netRunner, err := exp.Runner("mln", cem.WithBackend(cem.NewShardedNetBackend(0, addr)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := netRunner.Run(context.Background(), cem.SchemeSMP)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Matches.Equal(pool.Matches) {
		t.Errorf("distributed run diverges from pool: %d vs %d matches", res.Matches.Len(), pool.Matches.Len())
	}

	sigs <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatalf("worker shutdown: %v", err)
	}
	if !strings.Contains(out.String(), "emworker: SMP mln on 127.0.0.1:") {
		t.Errorf("startup banner missing from stdout: %q", out.String())
	}
}

// TestWorkerRefusesOtherMatcher: an emworker grounded with -matcher rules
// must not serve a coordinator running mln over the same corpus — the
// handshake refuses it, and with no other worker the run fails instead
// of returning the rules match set.
func TestWorkerRefusesOtherMatcher(t *testing.T) {
	sigs := make(chan os.Signal, 1)
	ready := make(chan string, 1)
	done := make(chan error, 1)
	var out, errBuf strings.Builder
	go func() {
		done <- run([]string{
			"-listen", "127.0.0.1:0", "-kind", "hepth", "-scale", "0.2", "-seed", "7",
			"-scheme", "smp", "-matcher", "rules",
		}, &out, &errBuf, sigs, ready)
	}()
	addr := <-ready

	d, err := cem.GenerateDataset(cem.HEPTH, 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := cem.New(d)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := exp.Runner("mln", cem.WithBackend(cem.NewShardedNetBackend(0, addr)))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := runner.Run(context.Background(), cem.SchemeSMP); err == nil {
		t.Errorf("an mln run on a rules worker succeeded with %d matches", res.Matches.Len())
	} else if !strings.Contains(err.Error(), "matcher mismatch") {
		t.Errorf("run failed for another reason than the matcher label: %v", err)
	}

	sigs <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatalf("worker shutdown: %v", err)
	}
}
