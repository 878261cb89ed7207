package grid

import (
	"context"
	"testing"
	"time"

	"repro/internal/canopy"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/mln"
	"repro/internal/testmodel"
)

// run executes one scheme with the simulated grid as its backend.
func run(cfg core.Config, scheme string, g Config) (*Result, error) {
	b, err := NewBackend(g)
	if err != nil {
		return nil, err
	}
	res, err := core.RunBackend(context.Background(), cfg, scheme, b, core.CheckpointConfig{})
	if err != nil {
		return nil, err
	}
	return b.Result(res), nil
}

func gridConfig() Config {
	return Config{Machines: 4, RoundOverhead: time.Millisecond, Seed: 1}
}

func paperCfg() core.Config {
	m, cover, _ := testmodel.PaperExample()
	return core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
}

func TestGridConfigValidation(t *testing.T) {
	cfg := paperCfg()
	bad := []Config{
		{Machines: 0},
		{Machines: 2, RoundOverhead: -time.Second},
		{Machines: 2, Workers: -1},
	}
	for i, g := range bad {
		if _, err := run(cfg, "NO-MP", g); err == nil {
			t.Errorf("case %d: invalid grid config accepted", i)
		}
	}
}

// TestSpeedupBounds: the simulated speedup is positive and cannot exceed
// the machine count (makespan ≥ total/machines), and single-machine time
// is at least the grid time.
func TestSpeedupBounds(t *testing.T) {
	d := datagen.MustGenerate(datagen.DBLPLike(0.2, 8))
	cover := canopy.BuildCover(d, canopy.DefaultConfig())
	sp := canopy.CandidatePairs(d, cover)
	cands := make([]mln.Candidate, len(sp))
	for i, s := range sp {
		cands[i] = mln.Candidate{Pair: s.Pair, Level: s.Level}
	}
	m, err := mln.New(d, cands, mln.PaperWeights())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Cover: cover, Matcher: m, Relation: d.Coauthor()}
	g := Config{Machines: 8, RoundOverhead: 0, Seed: 3}
	res, err := run(cfg, "SMP", g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup <= 0 {
		t.Fatalf("speedup = %v", res.Speedup)
	}
	if res.Speedup > float64(g.Machines)+1e-9 {
		t.Fatalf("speedup %v exceeds machine count %d", res.Speedup, g.Machines)
	}
	if res.SimulatedSingleTime < res.SimulatedGridTime {
		t.Fatal("single-machine time below grid time")
	}
	if res.Rounds == 0 || res.JobsRun < cover.Len() {
		t.Fatalf("stats wrong: %+v", res)
	}
	if res.String() == "" {
		t.Error("empty String()")
	}
}

// TestOverheadReducesSpeedup: with a large per-round overhead the grid
// advantage shrinks — the Table 1 mechanism.
func TestOverheadReducesSpeedup(t *testing.T) {
	cfg := paperCfg()
	fast, err := run(cfg, "SMP", Config{Machines: 4, RoundOverhead: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := run(cfg, "SMP", Config{Machines: 4, RoundOverhead: 50 * time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// With identical round structure, overhead inflates both clocks
	// equally per round, pushing the ratio toward 1.
	if slow.Speedup > fast.Speedup+1e-9 {
		t.Errorf("overhead increased speedup: %v > %v", slow.Speedup, fast.Speedup)
	}
}

func TestSingleRoundNoMP(t *testing.T) {
	cfg := paperCfg()
	res, err := run(cfg, "NO-MP", gridConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Fatalf("NO-MP rounds = %d, want 1", res.Rounds)
	}
	if res.JobsRun != cfg.Cover.Len() {
		t.Fatalf("NO-MP jobs = %d, want %d", res.JobsRun, cfg.Cover.Len())
	}
}

// TestServiceModel: when a service model is set, simulated clocks follow
// it (deterministically per job count) instead of measured wall time.
func TestServiceModel(t *testing.T) {
	cfg := paperCfg()
	unit := 10 * time.Millisecond
	g := Config{
		Machines:     2,
		Seed:         1,
		ServiceModel: func(active int) time.Duration { return time.Duration(active) * unit },
	}
	res, err := run(cfg, "NO-MP", g)
	if err != nil {
		t.Fatal(err)
	}
	// Single round over all neighborhoods: the simulated single-machine
	// time is exactly unit × Σ active decisions of the cover.
	want := time.Duration(0)
	for _, set := range cfg.Cover.Sets {
		want += time.Duration(len(cfg.Matcher.Candidates(set))) * unit
	}
	if res.SimulatedSingleTime != want {
		t.Errorf("modeled single time = %v, want %v", res.SimulatedSingleTime, want)
	}
	if res.SimulatedGridTime > res.SimulatedSingleTime {
		t.Error("grid time exceeds single-machine time")
	}
	// The model must not change the matching output.
	plain, err := run(cfg, "NO-MP", Config{Machines: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Matches.Equal(plain.Matches) {
		t.Error("service model changed the match output")
	}
}
