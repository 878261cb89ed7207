package cem_test

// Fault injection on the sharded backend, as runners over the theorem
// checker: a worker killed at every round boundary, and seeded
// drop/delay/duplicate schedules, must all land on the uninterrupted pool
// run's match set.

import (
	"context"
	"io"
	"runtime"
	"testing"
	"time"

	cem "repro"
	"repro/internal/core"
	emnet "repro/internal/net"
	"repro/internal/net/faultnet"
)

// workerConfig is what a worker grounds from its own flags: the
// experiment's cover and coauthor relation, and the runner's matcher.
func workerConfig(exp *cem.Experiment, runner *cem.Runner) core.Config {
	return core.Config{Cover: exp.Cover, Matcher: runner.Matcher(), Relation: exp.Dataset.Coauthor()}
}

// faultyNetBackend assembles a sharded backend whose in-process workers
// ground cfg and whose streams run through the injector, with supervision
// timings tight enough that a dropped frame costs milliseconds.
func faultyNetBackend(cfg core.Config, scheme string, k int, inj *faultnet.Injector) *emnet.Backend {
	opts := emnet.Options{
		RoundDeadline:     150 * time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond,
		RetryBackoff:      2 * time.Millisecond,
		MaxRetries:        6,
	}
	opts.Spawn = inj.Spawner(emnet.LocalSpawner(cfg, scheme, emnet.WorkerOptions{Wrap: inj.WrapWorker}))
	return &emnet.Backend{Workers: k, Opts: opts}
}

// TestDistributedKillAtEveryRound: on the HEPTH seed corpus, SIGKILL a
// worker at every round boundary of the run — it receives the round's
// assignment, then its stream dies for good. Every interrupted fleet must
// land on the pool's match set and report the reassignment that absorbed
// the loss, and the schedule must bite at least twice.
func TestDistributedKillAtEveryRound(t *testing.T) {
	for _, scheme := range []cem.Scheme{cem.SchemeSMP, cem.SchemeMMP} {
		kills := 0
		for round := 1; round <= 8; round++ {
			plan := faultnet.Plan{Seed: int64(round), KillAtRound: map[int]int{1: round}, Permadead: true}
			if o := theorems(t, scenario{corpus: goldenSeeds[0], matcher: cem.MatcherMLN, scheme: scheme, fault: &plan}); o.inj.Killed(1) {
				kills++
			}
		}
		if kills < 2 {
			t.Errorf("%s: only %d kills fired across rounds 1-8; the schedule never bit", scheme, kills)
		}
	}
}

// TestDistributedFaultSchedules: three seeded drop/delay/duplicate
// schedules per golden corpus × matcher. Schedules perturb which worker
// computes what and when — never what the run outputs. The faulted fleets
// wait out their round deadlines side by side.
func TestDistributedFaultSchedules(t *testing.T) {
	for _, c := range goldenSeeds {
		for _, matcher := range []string{cem.MatcherMLN, cem.MatcherRules} {
			sc := scenario{corpus: c, matcher: matcher, scheme: cem.SchemeSMP}
			sc.ref(t, sc.scheme)
			for seed := int64(1); seed <= 3; seed++ {
				t.Run("", func(t *testing.T) {
					t.Parallel()
					sc := sc
					sc.fault = &faultnet.Plan{Seed: seed, DropRate: 0.1, DupRate: 0.15, DelayRate: 0.25, MaxDelay: 3 * time.Millisecond}
					theorems(t, sc)
				})
			}
		}
	}
}

// TestShardedDefaultsToOneWorkerPerCPU: NewShardedNetBackend with no
// worker count spawns one in-process worker per CPU — the rule it
// documents for k < 1.
func TestShardedDefaultsToOneWorkerPerCPU(t *testing.T) {

	exp, err := cem.New(cem.NewDataset(cem.HEPTH, 0.25, 42))
	if err != nil {
		t.Fatal(err)
	}
	runner, err := exp.Runner(cem.MatcherMLN)
	if err != nil {
		t.Fatal(err)
	}
	b := cem.NewShardedNetBackend(0)
	nb, ok := b.(*emnet.Backend)
	if !ok {
		t.Fatalf("NewShardedNetBackend(0) is a %T, want *net.Backend", b)
	}
	local := emnet.LocalSpawner(workerConfig(exp, runner), "SMP", emnet.WorkerOptions{})
	slots := map[int]bool{} // the coordinator spawns from one goroutine
	nb.Opts.Spawn = func(ctx context.Context, worker int) (io.ReadWriteCloser, error) {
		slots[worker] = true
		return local(ctx, worker)
	}
	sharded, err := exp.Runner(cem.MatcherMLN, cem.WithBackend(nb))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sharded.Run(context.Background(), cem.SchemeSMP); err != nil {
		t.Fatal(err)
	}
	if len(slots) != runtime.NumCPU() {
		t.Errorf("spawned %d worker slots, want one per CPU (%d)", len(slots), runtime.NumCPU())
	}
}
