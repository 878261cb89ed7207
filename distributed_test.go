package cem_test

// Fixture-level fault-injection differentials for the sharded backend:
// a worker killed at every round boundary, and seeded
// drop/delay/duplicate schedules, must all land byte-identically on
// the uninterrupted pool run's match set. These run the real HEPTH
// seed corpus with the MLN matcher — the same ground the golden
// fixtures pin — so transport faults are exercised against real
// evidence-exchange traffic, not toy models.

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
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

// faultyNetBackend assembles a sharded backend whose streams run
// through the injector, with supervision timings tight enough that a
// dropped frame costs milliseconds.
func faultyNetBackend(exp *cem.Experiment, runner *cem.Runner, scheme string, k int, inj *faultnet.Injector) *emnet.Backend {
	opts := emnet.Options{
		RoundDeadline:     150 * time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond,
		RetryBackoff:      2 * time.Millisecond,
		MaxRetries:        6,
	}
	opts.Spawn = inj.Spawner(emnet.LocalSpawner(workerConfig(exp, runner), scheme, emnet.WorkerOptions{Wrap: inj.WrapWorker}))
	return &emnet.Backend{Workers: k, Opts: opts}
}

// coreSchemeName maps the public scheme to the engine's canonical name
// for worker-side plan construction.
func coreSchemeName(s cem.Scheme) string {
	switch s {
	case cem.SchemeNoMP:
		return "NO-MP"
	case cem.SchemeSMP:
		return "SMP"
	case cem.SchemeMMP:
		return "MMP"
	}
	return ""
}

// TestDistributedKillAtEveryRound: on the HEPTH seed corpus, SIGKILL a
// worker at every round boundary of the run — it receives the round's
// assignment, then its stream dies for good. Every interrupted fleet
// must render the exact fixture match set the pool backend produces,
// and must report the reassignment that absorbed the loss.
func TestDistributedKillAtEveryRound(t *testing.T) {
	exp, err := cem.New(cem.NewDataset(cem.HEPTH, 0.25, 42))
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []cem.Scheme{cem.SchemeSMP, cem.SchemeMMP} {
		runner, err := exp.Runner(cem.MatcherMLN)
		if err != nil {
			t.Fatal(err)
		}
		pool, err := runner.Run(context.Background(), scheme)
		if err != nil {
			t.Fatal(err)
		}
		want := renderMatches(pool)

		kills := 0
		const victim = 1
		for round := 1; round <= 8; round++ {
			inj := faultnet.New(faultnet.Plan{
				Seed:        int64(round),
				KillAtRound: map[int]int{victim: round},
				Permadead:   true,
			})
			b := faultyNetBackend(exp, runner, coreSchemeName(scheme), 3, inj)
			killed, err := exp.Runner(cem.MatcherMLN, cem.WithBackend(b))
			if err != nil {
				t.Fatal(err)
			}
			res, err := killed.Run(context.Background(), scheme)
			if err != nil {
				t.Fatalf("%s kill at round %d: a killed worker must never fail the run: %v", scheme, round, err)
			}
			if got := renderMatches(res); got != want {
				t.Errorf("%s kill at round %d: match set diverges: %s", scheme, round, firstDiff(got, want))
			}
			if !inj.Killed(victim) {
				continue // the victim drew no assignment that round (or the run was over)
			}
			kills++
			if res.Stats.Reassignments < 1 {
				t.Errorf("%s kill at round %d: worker died but Reassignments = %d", scheme, round, res.Stats.Reassignments)
			}
		}
		if kills < 2 {
			t.Errorf("%s: only %d kills fired across rounds 1-8; the schedule never bit", scheme, kills)
		}
	}
}

// TestDistributedFaultSchedules: three seeded drop/delay/duplicate
// schedules per golden corpus × matcher, each faulted fleet compared
// against the PINNED fixture file — the same bytes the fault-free
// golden suite asserts. Schedules perturb which worker computes what
// and when — never what the run outputs.
func TestDistributedFaultSchedules(t *testing.T) {
	for _, ds := range []cem.DatasetKind{cem.HEPTH, cem.DBLP} {
		exp, err := cem.New(cem.NewDataset(ds, 0.25, 42))
		if err != nil {
			t.Fatal(err)
		}
		for _, matcher := range []string{cem.MatcherMLN, cem.MatcherRules} {
			fixture := filepath.Join("testdata", "golden",
				fmt.Sprintf("%s-%s-%s.golden", ds, matcher, cem.SchemeSMP))
			want, err := os.ReadFile(fixture)
			if err != nil {
				t.Fatalf("missing fixture %s: %v", fixture, err)
			}
			runner, err := exp.Runner(matcher)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 3; seed++ {
				inj := faultnet.New(faultnet.Plan{
					Seed:      seed,
					DropRate:  0.1,
					DupRate:   0.15,
					DelayRate: 0.25,
					MaxDelay:  3 * time.Millisecond,
				})
				b := faultyNetBackend(exp, runner, "SMP", 3, inj)
				faulty, err := exp.Runner(matcher, cem.WithBackend(b))
				if err != nil {
					t.Fatal(err)
				}
				res, err := faulty.Run(context.Background(), cem.SchemeSMP)
				if err != nil {
					t.Fatalf("%s-%s seed %d: faulted run failed: %v", ds, matcher, seed, err)
				}
				if got := renderMatches(res); got != string(want) {
					t.Errorf("%s-%s seed %d: match set diverges from %s: %s",
						ds, matcher, seed, fixture, firstDiff(got, string(want)))
				}
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
