package experiments

import (
	"math/rand"
	"testing"
	"time"
)

// record is a run record of len(perRound) rounds, perRound[r] evaluations
// in round r+1, with seeded random active sizes in [0, 40).
func record(seed int64, perRound ...int) (rounds, sizes []int) {
	rng := rand.New(rand.NewSource(seed))
	for r, n := range perRound {
		for range n {
			rounds = append(rounds, r+1)
			sizes = append(sizes, rng.Intn(40))
		}
	}
	return rounds, sizes
}

// squareMs is a superlinear service model: m² milliseconds.
func squareMs(m int) time.Duration { return time.Duration(m*m) * time.Millisecond }

func clockConfig(machines int, overhead time.Duration) Config {
	return Config{Machines: machines, RoundOverhead: overhead, Seed: 3}
}

// TestGridClockSpeedupBounds: the speedup is positive and cannot exceed
// the machine count (a round's busiest machine carries at least its
// share), the single machine takes at least the grid's time, and one
// machine is the single machine.
func TestGridClockSpeedupBounds(t *testing.T) {
	rounds, sizes := record(1, 400, 120, 30)
	for _, machines := range []int{1, 2, 8, 30} {
		for _, overhead := range []time.Duration{0, 100 * time.Millisecond} {
			single, grid, _ := gridClock(rounds, sizes, clockConfig(machines, overhead), squareMs)
			speedup := float64(single) / float64(grid)
			if speedup <= 0 || speedup > float64(machines)+1e-9 {
				t.Errorf("machines %d, overhead %v: speedup %v outside (0, %d]", machines, overhead, speedup, machines)
			}
			if single < grid {
				t.Errorf("machines %d, overhead %v: single %v below grid %v", machines, overhead, single, grid)
			}
			if machines == 1 && single != grid {
				t.Errorf("one machine: grid %v, want the single machine's %v", grid, single)
			}
		}
	}
}

// TestGridClockOverheadReducesSpeedup: a per-round overhead inflates both
// clocks by the same amount per round, pushing the ratio toward 1 — the
// Table 1 mechanism.
func TestGridClockOverheadReducesSpeedup(t *testing.T) {
	rounds, sizes := record(2, 200, 60, 10)
	fastSingle, fastGrid, _ := gridClock(rounds, sizes, clockConfig(4, 0), squareMs)
	slowSingle, slowGrid, _ := gridClock(rounds, sizes, clockConfig(4, 50*time.Millisecond), squareMs)
	fast := float64(fastSingle) / float64(fastGrid)
	slow := float64(slowSingle) / float64(slowGrid)
	if slow > fast+1e-9 {
		t.Errorf("overhead increased speedup: %v > %v", slow, fast)
	}
}

// TestGridClockOneRound: a one-round record (NO-MP's) is one round, and
// an empty record none.
func TestGridClockOneRound(t *testing.T) {
	rounds, sizes := record(3, 50)
	if _, _, n := gridClock(rounds, sizes, clockConfig(4, time.Millisecond), squareMs); n != 1 {
		t.Errorf("one-round record: %d rounds, want 1", n)
	}
	if single, grid, n := gridClock(nil, nil, clockConfig(4, time.Millisecond), squareMs); n != 0 || single != 0 || grid != 0 {
		t.Errorf("empty record: %d rounds, single %v, grid %v; want nothing", n, single, grid)
	}
}

// TestGridClockSingleTime: the single machine pays every evaluation's
// service time plus one overhead per round, rounds being the record's
// distinct round numbers.
func TestGridClockSingleTime(t *testing.T) {
	const overhead = 7 * time.Millisecond
	rounds, sizes := record(4, 30, 12, 5, 1)
	var want time.Duration
	for _, m := range sizes {
		want += squareMs(m)
	}
	want += 4 * overhead
	single, _, n := gridClock(rounds, sizes, clockConfig(3, overhead), squareMs)
	if n != 4 || single != want {
		t.Errorf("single = %v over %d rounds, want %v over 4", single, n, want)
	}
}

// TestGridConfigValidation: Table 1 refuses a grid it cannot simulate —
// no machines, a negative round overhead — before it runs anything.
func TestGridConfigValidation(t *testing.T) {
	for i, g := range []Config{
		{Machines: 0},
		{Machines: -1, RoundOverhead: time.Second},
		{Machines: 2, RoundOverhead: -time.Second},
	} {
		cfg := Default()
		cfg.Machines, cfg.RoundOverhead = g.Machines, g.RoundOverhead
		if _, err := Table1(cfg); err == nil {
			t.Errorf("case %d: invalid grid config %+v accepted", i, g)
		}
	}
}
