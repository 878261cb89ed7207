package net_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	emnet "repro/internal/net"
	"repro/internal/net/faultnet"
	"repro/internal/testmodel"
	"repro/internal/wire"
)

// faultyBackend builds a sharded backend whose every stream — both
// directions — runs through the injector, with supervision timings
// tight enough that dropped frames cost milliseconds, not the default
// 30s deadline.
func faultyBackend(cfg core.Config, scheme string, k int, inj *faultnet.Injector) *emnet.Backend {
	opts := emnet.Options{
		RoundDeadline:     150 * time.Millisecond,
		HeartbeatInterval: 25 * time.Millisecond,
		RetryBackoff:      2 * time.Millisecond,
		MaxRetries:        6,
	}
	opts.Spawn = inj.Spawner(emnet.LocalSpawner(cfg, scheme, emnet.WorkerOptions{Wrap: inj.WrapWorker}))
	return &emnet.Backend{Workers: k, Opts: opts}
}

// TestNetKillWorkerEveryRound: SIGKILL-shaped worker loss — the victim
// receives the round's assignment and its stream dies — at every round
// boundary of the run, for every worker. The run must finish with the
// pool backend's exact output and must report the reassignment; a
// killed worker degrades throughput, never the result.
func TestNetKillWorkerEveryRound(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 4; trial++ {
		m, cover := testmodel.Random(rng)
		cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
		for _, scheme := range netSchemes {
			pool := poolRef(t, cfg, scheme)
			k := 2 + trial%2 // k=2 and k=3 fleets
			for round := 1; round <= 8; round++ {
				for victim := 0; victim < k; victim++ {
					inj := faultnet.New(faultnet.Plan{
						Seed:        int64(100*trial + round),
						KillAtRound: map[int]int{victim: round},
						Permadead:   true,
					})
					res := runOn(t, cfg, scheme, faultyBackend(cfg, scheme, k, inj))
					label := fmt.Sprintf("trial %d %s k=%d kill worker %d at round %d", trial, scheme, k, victim, round)
					assertSameRun(t, label, res, pool)
					if inj.Killed(victim) && res.Stats.Reassignments < 1 {
						t.Errorf("%s: worker was killed but Reassignments = %d", label, res.Stats.Reassignments)
					}
				}
			}
		}
	}
}

// TestNetFaultSchedules: seeded drop/delay/duplicate schedules on the
// data frames. Whatever the schedule does, the output must be the
// fault-free pool run's, and a duplicated batch must show up as a
// dropped late batch, not a double-count.
func TestNetFaultSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	m, cover := testmodel.Random(rng)
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
	for _, scheme := range netSchemes {
		pool := poolRef(t, cfg, scheme)
		for seed := int64(1); seed <= 3; seed++ {
			inj := faultnet.New(faultnet.Plan{
				Seed:      seed,
				DropRate:  0.15,
				DupRate:   0.2,
				DelayRate: 0.3,
				MaxDelay:  3 * time.Millisecond,
			})
			res := runOn(t, cfg, scheme, faultyBackend(cfg, scheme, 3, inj))
			assertSameRun(t, fmt.Sprintf("%s seed %d", scheme, seed), res, pool)
		}
	}
}

// TestNetDuplicateBatchesDropped: a schedule that duplicates every
// data frame. Every duplicate batch hits the epoch dedup, so the run
// both finishes identically and accounts the drops.
func TestNetDuplicateBatchesDropped(t *testing.T) {
	m, cover, _ := testmodel.PaperExample()
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
	pool := poolRef(t, cfg, "SMP")
	inj := faultnet.New(faultnet.Plan{Seed: 5, DupRate: 1})
	res := runOn(t, cfg, "SMP", faultyBackend(cfg, "SMP", 2, inj))
	assertSameRun(t, "dup-everything", res, pool)
	if res.Stats.LateBatchesDropped < 1 {
		t.Errorf("every batch was duplicated but LateBatchesDropped = %d", res.Stats.LateBatchesDropped)
	}
}

// TestNetTornStreams: mid-frame stream tears (the peer reads a
// truncated frame, the sender loses its conn). Workers die and
// respawn with full evidence re-syncs; the output must not move.
func TestNetTornStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m, cover := testmodel.Random(rng)
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
	for _, scheme := range []string{"SMP", "MMP"} {
		pool := poolRef(t, cfg, scheme)
		for seed := int64(1); seed <= 3; seed++ {
			inj := faultnet.New(faultnet.Plan{Seed: seed, TruncRate: 0.1})
			res := runOn(t, cfg, scheme, faultyBackend(cfg, scheme, 2, inj))
			assertSameRun(t, fmt.Sprintf("%s torn seed %d", scheme, seed), res, pool)
		}
	}
}

// TestNetFaultsBothFormats: the JSON codec under the same fault
// schedules — framing faults are codec-agnostic.
func TestNetFaultsBothFormats(t *testing.T) {
	m, cover, _ := testmodel.PaperExample()
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
	pool := poolRef(t, cfg, "MMP")
	for _, format := range []wire.Format{wire.Binary, wire.JSON} {
		inj := faultnet.New(faultnet.Plan{Seed: 11, DropRate: 0.2, DupRate: 0.2})
		b := faultyBackend(cfg, "MMP", 2, inj)
		b.Opts.Format = format
		res := runOn(t, cfg, "MMP", b)
		assertSameRun(t, fmt.Sprintf("faults fmt=%v", format), res, pool)
	}
}
