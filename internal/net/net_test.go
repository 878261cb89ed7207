package net_test

import (
	"context"
	"fmt"
	"math/rand"
	stdnet "net"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	emnet "repro/internal/net"
	"repro/internal/testmodel"
)

var bg = context.Background()

func runOn(t *testing.T, cfg core.Config, scheme string, b core.Backend) *core.Result {
	t.Helper()
	res, err := core.RunBackend(bg, cfg, scheme, b, core.CheckpointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// poolRef is the reference every networked run is graded against: the
// pool's snapshot rounds (two workers), the execution shape the workers'
// private replicas reproduce. (A one-worker pool reduces in order and
// lands on the same matches with different counters.)
func poolRef(t *testing.T, cfg core.Config, scheme string) *core.Result {
	t.Helper()
	cfg.Parallelism = 2
	return runOn(t, cfg, scheme, core.PoolBackend{})
}

// assertSameRun fails unless the two results carry the same match set
// and the same deterministic statistics. Wall-clock and resilience
// counters are excluded: how often the transport stumbled is exactly
// what faults perturb, and the theorems promise it never shows in
// anything else.
func assertSameRun(t *testing.T, label string, got, want *core.Result) {
	t.Helper()
	if !got.Matches.Equal(want.Matches) {
		t.Errorf("%s: match sets diverge: %d vs %d matches", label, got.Matches.Len(), want.Matches.Len())
	}
	gs, ws := got.Stats, want.Stats
	if gs.Evaluations != ws.Evaluations || gs.MatcherCalls != ws.MatcherCalls ||
		gs.MessagesSent != ws.MessagesSent || gs.MaximalMessages != ws.MaximalMessages ||
		gs.PromotedSets != ws.PromotedSets || gs.Skips != ws.Skips ||
		gs.MaxRevisits != ws.MaxRevisits || len(gs.ActiveSizes) != len(ws.ActiveSizes) {
		t.Errorf("%s: deterministic stats diverge:\ngot:  %v\nwant: %v", label, got.Stats, want.Stats)
	}
}

var netSchemes = []string{"NO-MP", "SMP", "MMP"}

// TestNetMatchesPoolRandom: with no faults, the network backend must
// land on the pool backend's exact output — match set AND deterministic
// statistics — for every worker count and every round-based scheme, and
// report no resilience events. The core package's
// TestShardedMatchesPoolRandom pins the same contract on other models.
func TestNetMatchesPoolRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		m, cover := testmodel.Random(rng)
		cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
		for _, scheme := range netSchemes {
			pool := poolRef(t, cfg, scheme)
			for _, k := range []int{1, 2, 3} {
				net := runOn(t, cfg, scheme, &emnet.Backend{Workers: k})
				label := fmt.Sprintf("trial %d %s k=%d", trial, scheme, k)
				assertSameRun(t, label, net, pool)
				if r := net.Stats; r.Reassignments+r.RetriedSends+r.LateBatchesDropped != 0 {
					t.Errorf("%s: fault-free run reports resilience events: %v", label, r)
				}
			}
		}
	}
}

// TestNetMoreWorkersThanNeighborhoods: idle slots (fewer partitions
// than workers) must not wedge or perturb the run.
func TestNetMoreWorkersThanNeighborhoods(t *testing.T) {
	m, cover, _ := testmodel.PaperExample()
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
	pool := poolRef(t, cfg, "SMP")
	net := runOn(t, cfg, "SMP", &emnet.Backend{Workers: cover.Len() + 3})
	assertSameRun(t, "oversized fleet", net, pool)
}

// TestNetBackendReturnsBareCtxErr: cancellation racing a round
// boundary surfaces as the bare ctx.Err(), the contract every backend
// pins so callers can errors.Is without knowing the executor.
func TestNetBackendReturnsBareCtxErr(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m, cover := testmodel.Random(rng)
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation(),
		Progress: func(core.ProgressEvent) { cancel() }}
	_, err := core.RunBackend(ctx, cfg, "SMP", &emnet.Backend{Workers: 2}, core.CheckpointConfig{})
	if err != context.Canceled {
		t.Fatalf("canceled run returned %v, want bare context.Canceled", err)
	}
}

// TestNetHandshakeRejectsMismatch: a worker grounded on a different
// run fingerprint (here: a different matcher label) must be refused at
// handshake, and with no other workers the run fails instead of
// computing against the wrong model. The coordinator's label is the
// run's own, CheckpointConfig.Matcher; its in-process workers carry the
// same one.
func TestNetHandshakeRejectsMismatch(t *testing.T) {
	m, cover, _ := testmodel.PaperExample()
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
	labeled := core.CheckpointConfig{Matcher: "model-A"}
	b := &emnet.Backend{Workers: 1, Opts: emnet.Options{
		RetryBackoff: time.Millisecond,
		Spawn:        emnet.LocalSpawner(cfg, "SMP", emnet.WorkerOptions{Matcher: "model-B"}),
	}}
	if _, err := core.RunBackend(bg, cfg, "SMP", b, labeled); err == nil {
		t.Fatal("mismatched matcher fingerprint was accepted")
	}
	if _, err := core.RunBackend(bg, cfg, "SMP", &emnet.Backend{Workers: 2}, labeled); err != nil {
		t.Fatalf("default workers refused their own run's label: %v", err)
	}
}

// TestNetOverSockets runs real emworker-style servers — one unix
// socket, one TCP — and attaches them via DialSpawner addresses,
// asserting the socketed run is byte-identical to pool.
func TestNetOverSockets(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m, cover := testmodel.Random(rng)
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
	scheme := "MMP"

	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	sock := filepath.Join(t.TempDir(), "w0.sock")
	ul, err := stdnet.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []stdnet.Listener{ul, tl} {
		go emnet.Serve(ctx, l, cfg, scheme, emnet.WorkerOptions{})
	}

	pool := poolRef(t, cfg, scheme)
	net := runOn(t, cfg, scheme, &emnet.Backend{
		Addrs: []string{"unix:" + sock, tl.Addr().String()},
	})
	assertSameRun(t, "socketed run", net, pool)
}
