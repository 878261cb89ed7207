package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	cem "repro"
	"repro/internal/wire"
	"repro/match"
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

	t.Run("records", func(t *testing.T) { workerServesRecords(t, d) })
}

// workerServesRecords: an emworker reading a records file serves the
// Pipeline a coordinator runs over the same file, and the distributed run
// equals the pool run.
func workerServesRecords(t *testing.T, d *match.Dataset) {
	path := filepath.Join(t.TempDir(), "records.tsv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := cem.WriteRecords(f, d.Name, cem.RecordsFromDataset(d)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	sigs := make(chan os.Signal, 1)
	ready := make(chan string, 1)
	done := make(chan error, 1)
	var out, errBuf strings.Builder
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-records", path, "-scheme", "smp", "-matcher", "mln"},
			&out, &errBuf, sigs, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("worker over %s: %v", path, err)
	}
	name, recs, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	runPipe := func(opts ...cem.RunnerOption) *cem.PipelineResult {
		t.Helper()
		pipe, err := cem.NewPipeline(cem.WithDatasetName(name), cem.WithScheme(cem.SchemeSMP), cem.WithRunnerOptions(opts...))
		if err != nil {
			t.Fatal(err)
		}
		res, err := pipe.Run(context.Background(), recs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	pool := runPipe()
	res := runPipe(cem.WithBackend(cem.NewShardedNetBackend(0, addr)))
	if !res.Matches.Equal(pool.Matches) || res.Matches.Len() == 0 {
		t.Errorf("distributed pipeline diverges from pool: %d vs %d matches", res.Matches.Len(), pool.Matches.Len())
	}

	sigs <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatalf("worker shutdown: %v", err)
	}
}

// readFile reads a records file as a coordinator does.
func readFile(path string) (string, []cem.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", nil, err
	}
	defer f.Close()
	return cem.ReadRecords(f)
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

// marshaler is a wire message.
type marshaler interface {
	Marshal(wire.Format) ([]byte, error)
}

// TestHoldConnHoldsItsRound: the test-only hold hook passes every frame
// but a batch of its round, which it holds until its context ends.
func TestHoldConnHoldsItsRound(t *testing.T) {
	frame := func(ft byte, m marshaler) []byte {
		t.Helper()
		payload, err := m.Marshal(wire.Binary)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := wire.WriteFrame(&buf, ft, payload); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	worker, coordinator := net.Pipe()
	received := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(coordinator)
		received <- b
	}()
	ctx, cancel := context.WithCancel(context.Background())
	h := &holdConn{Conn: worker, ctx: ctx, round: 2}
	passed := [][]byte{
		frame(wire.FrameBatch, &wire.ShardBatch{Round: 1}),
		frame(wire.FrameHeartbeat, &wire.Heartbeat{Round: 2}),
		frame(wire.FrameBatch, &wire.ShardBatch{Round: 3}),
	}
	for _, f := range passed {
		if _, err := h.Write(f); err != nil {
			t.Fatal(err)
		}
	}

	held := make(chan error, 1)
	go func() {
		_, err := h.Write(frame(wire.FrameBatch, &wire.ShardBatch{Round: 2}))
		held <- err
	}()
	select {
	case err := <-held:
		t.Fatalf("the round-2 batch was not held (write returned %v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	if err := <-held; err == nil {
		t.Fatal("a held write ended without an error")
	}
	h.Close()
	if got, want := <-received, bytes.Join(passed, nil); !bytes.Equal(got, want) {
		t.Fatalf("the coordinator received %d bytes, want the %d of the frames not held", len(got), len(want))
	}
}
