package cem_test

// The conformance matrix — every placement × matcher × scheme on the
// golden corpora, through the theorem checker — and the schedules and
// covers the checker varies: a seeded shuffled backend, the sharded
// backend over loopback TCP, and redundant or merged sets.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"sync"
	"testing"

	cem "repro"
	"repro/internal/core"
	"repro/match"
)

// shuffledBackend is the matrix's adversarial schedule: every round it
// evaluates the active set one neighborhood at a time in a seeded random
// order, reducing each before the next. Like every backend, it stops
// between evaluations once ctx is cancelled.
type shuffledBackend struct{ rng *rand.Rand }

func (b shuffledBackend) RunRounds(ctx context.Context, _ *match.RoundPlan, d *match.RoundDriver) error {
	for !d.Done() {
		ids := slices.Clone(d.Active())
		b.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		for _, id := range ids {
			if err := ctx.Err(); err != nil {
				return err
			}
			d.Reduce(d.Evaluate(id))
		}
		if err := d.EndRound(); err != nil {
			return err
		}
	}
	return nil
}

// overLoopback returns an Options.Wrap that carries a worker stream
// over a loopback TCP connection: the coordinator reads and writes one
// end of the socket, and a relay copies between the other end and the
// in-process worker's pipe. Frames then reach both sides as the kernel
// segments them, the way an attached emworker's do, instead of whole
// through a synchronous pipe.
func overLoopback(t *testing.T) func(int, io.ReadWriteCloser) io.ReadWriteCloser {
	return func(_ int, pipe io.ReadWriteCloser) io.ReadWriteCloser {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Errorf("loopback listen: %v", err)
			return pipe
		}
		defer l.Close()
		coord, err := net.Dial("tcp", l.Addr().String()) // the listen backlog completes the handshake
		if err != nil {
			t.Errorf("loopback dial: %v", err)
			return pipe
		}
		relay, err := l.Accept()
		if err != nil {
			coord.Close()
			t.Errorf("loopback accept: %v", err)
			return pipe
		}
		// Each copy ends when its source closes or fails, and closes its
		// destination, so a close on either side reaches the other.
		go func() { _, _ = io.Copy(relay, pipe); relay.Close() }()
		go func() { _, _ = io.Copy(pipe, relay); pipe.Close() }()
		return coord
	}
}

// perturb is exp over its cover with about every fourth set changed:
// "redundant" inserts, at a random position, a duplicate of a random set
// or a non-empty subset of one, so the original sets' ids move too;
// "merged" joins a random set with another.
func perturb(t *testing.T, exp *cem.Experiment, how string, seed int64) *cem.Experiment {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sets := slices.Clone(exp.Cover.Sets)
	for range (len(sets) + 3) / 4 {
		extra := slices.Clone(sets[rng.Intn(len(sets))])
		if how == "merged" {
			i := rng.Intn(len(sets))
			extra = append(extra, sets[i]...)
			slices.Sort(extra)
			sets[i] = slices.Compact(extra)
			continue
		}
		if rng.Intn(2) == 0 {
			if sub := slices.DeleteFunc(slices.Clone(extra), func(core.EntityID) bool { return rng.Intn(3) == 0 }); len(sub) > 0 {
				extra = sub
			}
		}
		sets = slices.Insert(sets, rng.Intn(len(sets)+1), extra)
	}
	out, err := cem.NewWithCover(exp.Dataset, core.NewCover(exp.Cover.NumEntities, sets))
	if err != nil {
		t.Fatal(err)
	}
	if how == "redundant" && (out.Cover.Len() <= exp.Cover.Len() || out.Table.Len() != exp.Table.Len()) {
		t.Fatalf("redundant cover: %d sets and %d candidates, from %d and %d", out.Cover.Len(), out.Table.Len(), exp.Cover.Len(), exp.Table.Len())
	}
	return out
}

// TestConcurrentCovers runs SMP over the experiment's cover and over a
// refinement of it at the same time, on one built-in matcher. Each run's
// PrepareCover replaces the other's, so a run can name a neighborhood of a
// cover the matcher no longer holds prepared, which it must then scope
// afresh. Every result must equal the run over its cover alone.
func TestConcurrentCovers(t *testing.T) {
	exp, err := cem.New(cem.NewDataset(cem.HEPTH, 0.25, 42))
	if err != nil {
		t.Fatal(err)
	}
	covers := []*core.Cover{exp.Cover, perturb(t, exp, "redundant", 42).Cover}
	mlnM, rulesM := builtins(t, exp)
	for _, m := range []match.Matcher{mlnM, rulesM} {
		run := func(c *core.Cover) match.PairSet {
			res, err := core.SMP(context.Background(), core.Config{Cover: c, Matcher: m, Relation: exp.Dataset.Coauthor()})
			if err != nil {
				t.Error(err)
				return nil
			}
			return res.Matches
		}
		alone := make([]match.PairSet, len(covers))
		for i, c := range covers {
			alone[i] = run(c)
		}
		var wg sync.WaitGroup
		for i, c := range covers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 3 {
					if got := run(c); !got.Equal(alone[i]) {
						t.Errorf("%T, cover %d: a concurrent run matched %d pairs, alone %d", m, i, got.Len(), alone[i].Len())
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestConformance runs every placement × matcher × scheme on the golden
// corpora, in six rows: no store, the "mem" and the "disk" store (every
// round run's completed state saved and read back), redundant sets, and
// the two logical options, transitive closure and negative evidence.
func TestConformance(t *testing.T) {
	placements := []string{"pool-1", "pool-4", "shuffled", "grid", "sharded-1", "sharded-2", "sharded-4", "sharded-net-1", "sharded-net-2"}
	for _, c := range goldenSeeds {
		for _, matcher := range []string{cem.MatcherMLN, cem.MatcherRules} {
			for _, row := range []string{"nostore", "mem", "disk", "refined", "closure", "negative"} {
				sc := scenario{corpus: c, matcher: matcher}
				schemes := goldenMatrix[matcher]
				switch row {
				case "mem", "disk":
					sc.store = row
				case "refined":
					sc.cover = "redundant"
				case "closure":
					sc.closure, schemes = true, schemes[:2]
				case "negative":
					sc.evidence, schemes = row, schemes[:2]
				}
				for i, place := range placements {
					t.Run(fmt.Sprintf("%s/%s/%s/%s", c.kind, matcher, row, place), func(t *testing.T) {
						sc := sc
						sc.place = place
						for _, sc.scheme = range schemes {
							if roundScheme(sc.scheme) || i == 0 { // a whole-set scheme has no placement to vary
								theorems(t, sc)
							}
						}
					})
				}
			}
		}
	}
}
