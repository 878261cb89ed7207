package core_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/testmodel"
	"repro/internal/unionfind"
)

// pairNames resolves a match set to names for readable failures.
func pairNames(ids map[string]core.EntityID, names ...[2]string) core.PairSet {
	s := core.NewPairSet()
	for _, n := range names {
		s.Add(core.MakePair(ids[n[0]], ids[n[1]]))
	}
	return s
}

// TestPaperExampleFull verifies the §2.1 narrative: the globally optimal
// match set contains all five pairs.
func TestPaperExampleFull(t *testing.T) {
	m, cover, ids := testmodel.PaperExample()
	full := mustRun(t, core.Full, core.Config{Cover: cover, Matcher: m, Relation: m.Relation()})
	want := pairNames(ids,
		[2]string{"a1", "a2"}, [2]string{"b1", "b2"}, [2]string{"b2", "b3"},
		[2]string{"c1", "c2"}, [2]string{"c2", "c3"})
	if !full.Matches.Equal(want) {
		t.Fatalf("FULL = %v, want %v", full.Matches.Sorted(), want.Sorted())
	}
}

// TestPaperExampleNoMP: independent neighborhood runs find only (c1,c2).
func TestPaperExampleNoMP(t *testing.T) {
	m, cover, ids := testmodel.PaperExample()
	res := mustRun(t, core.NoMP, core.Config{Cover: cover, Matcher: m, Relation: m.Relation()})
	want := pairNames(ids, [2]string{"c1", "c2"})
	if !res.Matches.Equal(want) {
		t.Fatalf("NO-MP = %v, want %v", res.Matches.Sorted(), want.Sorted())
	}
	if res.Stats.Evaluations != cover.Len() {
		t.Errorf("NO-MP evaluations = %d, want %d", res.Stats.Evaluations, cover.Len())
	}
}

// TestPaperExampleSMP: simple messages additionally recover (b1,b2) —
// and nothing else (§2.2: "the simple message passing scheme cannot
// recover matches (a1,a2), (b2,b3) and (c2,c3)").
func TestPaperExampleSMP(t *testing.T) {
	m, cover, ids := testmodel.PaperExample()
	res := mustRun(t, core.SMP, core.Config{Cover: cover, Matcher: m, Relation: m.Relation()})
	want := pairNames(ids, [2]string{"c1", "c2"}, [2]string{"b1", "b2"})
	if !res.Matches.Equal(want) {
		t.Fatalf("SMP = %v, want %v", res.Matches.Sorted(), want.Sorted())
	}
}

// TestPaperExampleMMP: maximal messages complete the 3-chain; MMP output
// equals the full run (completeness 1 on this instance, §6.1).
func TestPaperExampleMMP(t *testing.T) {
	m, cover, _ := testmodel.PaperExample()
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
	res, err := core.MMP(bg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := mustRun(t, core.Full, cfg)
	if !res.Matches.Equal(full.Matches) {
		t.Fatalf("MMP = %v, want FULL = %v", res.Matches.Sorted(), full.Matches.Sorted())
	}
	if res.Stats.MaximalMessages == 0 || res.Stats.PromotedSets == 0 {
		t.Errorf("MMP stats show no maximal-message activity: %+v", res.Stats)
	}
}

// TestPaperExampleUB: the oracle recovers all five pairs too.
func TestPaperExampleUB(t *testing.T) {
	m, cover, ids := testmodel.PaperExample()
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
	truth := pairNames(ids,
		[2]string{"a1", "a2"}, [2]string{"b1", "b2"}, [2]string{"b2", "b3"},
		[2]string{"c1", "c2"}, [2]string{"c2", "c3"})
	res, err := core.UB(bg, cfg, truth)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Matches.Equal(truth) {
		t.Fatalf("UB = %v, want %v", res.Matches.Sorted(), truth.Sorted())
	}
}

// TestSMPSoundnessRandom checks Theorem 2(2) on random instances:
// SMP's output is contained in the full run's output.
func TestSMPSoundnessRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 120; trial++ {
		m, cover := testmodel.Random(rng)
		cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
		smp := mustRun(t, core.SMP, cfg)
		full := mustRun(t, core.Full, cfg)
		if !smp.Matches.Subset(full.Matches) {
			t.Fatalf("trial %d: SMP unsound: %v ⊄ %v",
				trial, smp.Matches.Sorted(), full.Matches.Sorted())
		}
		// NO-MP is sound too, and SMP finds at least as much.
		nomp := mustRun(t, core.NoMP, cfg)
		if !nomp.Matches.Subset(full.Matches) {
			t.Fatalf("trial %d: NO-MP unsound", trial)
		}
		if !nomp.Matches.Subset(smp.Matches) {
			t.Fatalf("trial %d: SMP lost NO-MP matches", trial)
		}
	}
}

// TestMMPSoundnessRandom checks Theorem 4 soundness on random instances,
// and that MMP finds at least as much as SMP.
func TestMMPSoundnessRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 120; trial++ {
		m, cover := testmodel.Random(rng)
		cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
		mmp, err := core.MMP(bg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		full := mustRun(t, core.Full, cfg)
		if !mmp.Matches.Subset(full.Matches) {
			t.Fatalf("trial %d: MMP unsound: extra %v",
				trial, mmp.Matches.Minus(full.Matches).Sorted())
		}
		smp := mustRun(t, core.SMP, cfg)
		if !smp.Matches.Subset(mmp.Matches) {
			t.Fatalf("trial %d: MMP lost SMP matches %v",
				trial, smp.Matches.Minus(mmp.Matches).Sorted())
		}
	}
}

// TestConsistencyRandom checks Theorem 2(3)/4: the outputs of SMP and MMP
// do not depend on the order in which neighborhoods are evaluated. We
// permute the cover's neighborhood list (which permutes the initial
// queue) and compare outputs.
func TestConsistencyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for trial := 0; trial < 60; trial++ {
		m, cover := testmodel.Random(rng)
		cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
		smpRef := mustRun(t, core.SMP, cfg)
		mmpRef, err := core.MMP(bg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for perm := 0; perm < 3; perm++ {
			shuffled := make([][]core.EntityID, len(cover.Sets))
			copy(shuffled, cover.Sets)
			rng.Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			cfg2 := core.Config{
				Cover:    core.NewCover(cover.NumEntities, shuffled),
				Matcher:  m,
				Relation: m.Relation(),
			}
			smp2 := mustRun(t, core.SMP, cfg2)
			if !smp2.Matches.Equal(smpRef.Matches) {
				t.Fatalf("trial %d perm %d: SMP inconsistent: %v vs %v",
					trial, perm, smp2.Matches.Sorted(), smpRef.Matches.Sorted())
			}
			mmp2, err := core.MMP(bg, cfg2)
			if err != nil {
				t.Fatal(err)
			}
			if !mmp2.Matches.Equal(mmpRef.Matches) {
				t.Fatalf("trial %d perm %d: MMP inconsistent: %v vs %v",
					trial, perm, mmp2.Matches.Sorted(), mmpRef.Matches.Sorted())
			}
		}
	}
}

// TestUBContainsFullRandom: with truth = the full run's own output, the
// UB oracle must contain every full-run match (each matched pair has
// non-negative conditional gain at the optimum; supermodularity).
func TestUBContainsFullRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 120; trial++ {
		m, cover := testmodel.Random(rng)
		cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
		full := mustRun(t, core.Full, cfg)
		ub, err := core.UB(bg, cfg, full.Matches)
		if err != nil {
			t.Fatal(err)
		}
		if !full.Matches.Subset(ub.Matches) {
			t.Fatalf("trial %d: UB misses full-run matches %v",
				trial, full.Matches.Minus(ub.Matches).Sorted())
		}
	}
}

// TestRevisitBound checks the counter behind Theorem 3: no neighborhood
// is evaluated more than k²+1 times (each re-activation of C follows a
// strict growth of M+ ∩ C×C, bounded by k²).
func TestRevisitBound(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	for trial := 0; trial < 60; trial++ {
		m, cover := testmodel.Random(rng)
		cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
		k := cover.MaxSize()
		smp := mustRun(t, core.SMP, cfg)
		if smp.Stats.MaxRevisits > k*k+1 {
			t.Fatalf("trial %d: SMP revisits %d exceed k²+1 = %d",
				trial, smp.Stats.MaxRevisits, k*k+1)
		}
		mmp, err := core.MMP(bg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if mmp.Stats.MaxRevisits > k*k+1 {
			t.Fatalf("trial %d: MMP revisits %d exceed k²+1 = %d",
				trial, mmp.Stats.MaxRevisits, k*k+1)
		}
	}
}

// TestMMPRejectsTypeI: MMP must refuse a plain Type-I matcher.
func TestMMPRejectsTypeI(t *testing.T) {
	plain := core.MatcherFunc{
		MatchFn: func(e []core.EntityID, pos, neg core.PairSet) core.PairSet {
			return core.NewPairSet()
		},
	}
	_, err := core.MMP(bg, core.Config{
		Cover:   core.NewCover(2, [][]core.EntityID{{0, 1}}),
		Matcher: plain,
	})
	if err == nil {
		t.Fatal("MMP accepted a non-probabilistic matcher")
	}
}

// TestUBRequiresDecider: UB must refuse matchers without DecideGiven.
func TestUBRequiresDecider(t *testing.T) {
	plain := core.MatcherFunc{
		MatchFn: func(e []core.EntityID, pos, neg core.PairSet) core.PairSet {
			return core.NewPairSet()
		},
	}
	_, err := core.UB(bg, core.Config{
		Cover:   core.NewCover(2, [][]core.EntityID{{0, 1}}),
		Matcher: plain,
	}, core.NewPairSet())
	if err == nil {
		t.Fatal("UB accepted a matcher without DecideGiven")
	}
}

// TestStatsPlumbing sanity-checks the run statistics.
func TestStatsPlumbing(t *testing.T) {
	m, cover, _ := testmodel.PaperExample()
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
	res := mustRun(t, core.SMP, cfg)
	if res.Stats.Neighborhoods != 3 {
		t.Errorf("Neighborhoods = %d", res.Stats.Neighborhoods)
	}
	if res.Stats.MatcherCalls < 3 || res.Stats.Evaluations < 3 {
		t.Errorf("stats = %+v", res.Stats)
	}
	if res.Stats.String() == "" {
		t.Error("stats string empty")
	}
	if res.Scheme != "SMP" {
		t.Errorf("scheme = %q", res.Scheme)
	}
}

// messageCounter is a one-worker backend that, before it reduces a job,
// derives the neighborhood's maximal messages with a naive Algorithm 2 of
// its own: it counts the groups of two or more pairs — what the message
// store takes — and the singleton groups, which it does not.
type messageCounter struct {
	m                   *testmodel.Model
	entered, singletons int
}

func (b *messageCounter) RunRounds(ctx context.Context, plan *core.RoundPlan, d *core.RoundDriver) error {
	for !d.Done() {
		for _, id := range d.Active() {
			pos := d.Snapshot().Overflow() // a matcher without a table: all of M+
			j := d.Evaluate(id)
			if !j.Skipped() {
				entities := plan.Config.Cover.Sets[id]
				base := b.m.Match(entities, pos, nil)
				var probes []core.Pair
				for _, p := range b.m.Candidates(entities) {
					if !base.Has(p) && !pos.Has(p) {
						probes = append(probes, p)
					}
				}
				outs := make([]core.PairSet, len(probes))
				for i, p := range probes {
					outs[i] = b.m.Match(entities, pos.WithPair(p), nil)
				}
				dsu := unionfind.New(len(probes))
				for i := range probes {
					for k := i + 1; k < len(probes); k++ {
						if outs[i].Has(probes[k]) && outs[k].Has(probes[i]) {
							dsu.Union(i, k)
						}
					}
				}
				for _, group := range dsu.Sets() {
					if len(group) >= 2 {
						b.entered++
					} else {
						b.singletons++
					}
				}
			}
			d.Reduce(j)
		}
		if err := d.EndRound(); err != nil {
			return err
		}
	}
	return nil
}

// TestMaximalMessagesCountsWhatEntersTheStore pins RunStats.MaximalMessages
// for a Type-II matcher without a MaximalMessages of its own: it counts
// the messages that enter the store, as it does for the built-in MLN —
// not the singleton groups of the generic Algorithm 2, which never do.
func TestMaximalMessagesCountsWhatEntersTheStore(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	entered, singletons := 0, 0
	for trial := 0; trial < 20; trial++ {
		m, cover := testmodel.Random(rng)
		b := &messageCounter{m: m}
		res := runOn(t, core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}, "MMP", b)
		if res.Stats.MaximalMessages != b.entered {
			t.Fatalf("trial %d: MaximalMessages = %d, want the %d messages that entered the store (%d singletons)",
				trial, res.Stats.MaximalMessages, b.entered, b.singletons)
		}
		entered, singletons = entered+b.entered, singletons+b.singletons
	}
	if entered == 0 || singletons == 0 {
		t.Fatalf("fixtures derived %d messages and %d singletons; the test needs both", entered, singletons)
	}
}
