package experiments

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	cem "repro"
	"repro/internal/core"
)

// testConfig is small enough for CI but large enough for stable shapes.
func testConfig() Config {
	cfg := Default()
	cfg.Scale = 0.25
	cfg.Machines = 8
	cfg.RoundOverhead = 10 * time.Millisecond
	cfg.Fig3fSteps = 4
	return cfg
}

// cell parses a float cell.
func cell(t *testing.T, tb *Table, row, col int) float64 {
	t.Helper()
	s := tb.Rows[row][col]
	s = strings.TrimSuffix(s, "ms")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not a number: %v", row, col, tb.Rows[row][col], err)
	}
	return v
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		ID:     "T",
		Title:  "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"a note"},
	}
	s := tb.String()
	for _, want := range []string{"T — demo", "333", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestModeledCost(t *testing.T) {
	if got := modeledCost([]int{2, 3}, 2); got != 13 {
		t.Errorf("modeledCost = %v, want 13", got)
	}
	if got := modeledCost([]int{0, -1, 2}, 2); got != 4 {
		t.Errorf("modeledCost with non-positives = %v, want 4", got)
	}
	if got := modeledCost(nil, 2); got != 0 {
		t.Errorf("empty = %v", got)
	}
}

// TestFig3aShape: row order nomp, smp, mmp, ub; recall non-decreasing;
// precision high.
func TestFig3aShape(t *testing.T) {
	tb, err := Fig3a(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tb.Rows))
	}
	var lastR float64
	for i := 0; i < 3; i++ {
		p, r := cell(t, tb, i, 1), cell(t, tb, i, 2)
		if p < 0.8 {
			t.Errorf("row %d precision %.3f < 0.8", i, p)
		}
		if r < lastR {
			t.Errorf("recall decreased at row %d: %.3f < %.3f", i, r, lastR)
		}
		lastR = r
	}
	if ub := cell(t, tb, 3, 2); ub < lastR {
		t.Errorf("UB recall %.3f below MMP %.3f", ub, lastR)
	}
}

func TestFig3bShape(t *testing.T) {
	tb, err := Fig3b(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var lastR float64
	for i := 0; i < 3; i++ {
		if r := cell(t, tb, i, 2); r < lastR {
			t.Errorf("recall decreased at row %d", i)
		} else {
			lastR = r
		}
	}
}

// TestFig3cShape: MMP completeness vs FULL is exactly 1 and everything is
// sound vs FULL.
func TestFig3cShape(t *testing.T) {
	tb, err := Fig3c(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tb.Rows))
	}
	for i, row := range tb.Rows {
		if s := cell(t, tb, i, 4); s < 1 {
			t.Errorf("row %v unsound vs FULL: %.4f", row[:2], s)
		}
		if row[1] == "mmp" {
			if c := cell(t, tb, i, 3); c < 1 {
				t.Errorf("%s MMP completeness vs FULL = %.4f, want 1", row[0], c)
			}
		}
	}
}

// TestFig3dShape: MMP's modeled cost is below SMP's (messages shrink
// active sizes; MMP shrinks them most).
func TestFig3dShape(t *testing.T) {
	tb, err := Fig3d(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	var costs []float64
	for i := range tb.Rows {
		v, err := strconv.ParseFloat(tb.Rows[i][5], 64)
		if err != nil {
			t.Fatal(err)
		}
		costs = append(costs, v)
	}
	if !(costs[2] <= costs[1]) {
		t.Errorf("MMP modeled cost %.3e above SMP %.3e", costs[2], costs[1])
	}
}

// TestFig3eShape: DBLP-like totals are much cheaper than HEPTH-like
// (order-of-magnitude observation of §6.2).
func TestFig3eShape(t *testing.T) {
	cfg := testConfig()
	hep, err := Fig3d(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dbl, err := Fig3e(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hepCost, _ := strconv.ParseFloat(hep.Rows[0][5], 64)
	dblCost, _ := strconv.ParseFloat(dbl.Rows[0][5], 64)
	if dblCost*2 > hepCost {
		t.Errorf("DBLP NO-MP modeled cost %.3e not well below HEPTH %.3e", dblCost, hepCost)
	}
}

// TestFig3fShape: over prefixes averaged across shuffles, FULL EM's
// modeled cost grows superlinearly with the decisions, and faster than
// MMP's — the figure's separation.
func TestFig3fShape(t *testing.T) {
	tb, err := Fig3f(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	first, last := tb.Rows[0], tb.Rows[len(tb.Rows)-1]
	decRatio := mustF(t, last[1]) / mustF(t, first[1])
	fullRatio := mustF(t, last[3]) / mustF(t, first[3])
	mmpRatio := mustF(t, last[5]) / mustF(t, first[5])
	// FULL EM's cost is superlinear in the number of decisions.
	if fullRatio < decRatio*1.3 {
		t.Errorf("FULL EM cost ratio %.1f not superlinear in decision ratio %.1f", fullRatio, decRatio)
	}
	// MMP's cost grows more slowly than FULL EM's.
	if mmpRatio >= fullRatio {
		t.Errorf("MMP cost ratio %.1f not below FULL EM's %.1f", mmpRatio, fullRatio)
	}
	// At full scale, FULL EM is the more expensive strategy (and the gap
	// widens with corpus size — the Fig 3(f) separation).
	if mustF(t, last[3]) < mustF(t, last[5]) {
		t.Errorf("at k=n, FULL EM cost %.3e below MMP %.3e", mustF(t, last[3]), mustF(t, last[5]))
	}
}

func mustF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

// TestTable1Shape: positive speedup strictly below the machine count.
func TestTable1Shape(t *testing.T) {
	cfg := testConfig()
	cfg.Scale = 0.05 // grid corpus is 8× the dblp recipe
	tb, err := Table1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for i, row := range tb.Rows {
		sp := cell(t, tb, i, 3)
		if sp <= 1 || sp > float64(cfg.Machines) {
			t.Errorf("%s speedup %.1f outside (1, %d]", row[0], sp, cfg.Machines)
		}
	}
}

// TestFig4Shape: SMP matches FULL exactly for RULES on both corpora.
func TestFig4Shape(t *testing.T) {
	cfg := testConfig()
	for _, fn := range []func(Config) (*Table, error){Fig4a, Fig4b} {
		tb, err := fn(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(tb.Rows) != 3 {
			t.Fatalf("rows = %d", len(tb.Rows))
		}
		// rows: nomp, smp, full — smp and full tp/fp/fn must agree.
		for col := 4; col <= 6; col++ {
			if tb.Rows[1][col] != tb.Rows[2][col] {
				t.Errorf("%s: SMP col %d = %s != FULL %s",
					tb.ID, col, tb.Rows[1][col], tb.Rows[2][col])
			}
		}
		if cell(t, tb, 0, 2) > cell(t, tb, 1, 2) {
			t.Errorf("%s: NO-MP recall above SMP", tb.ID)
		}
	}
}

// TestFig4cShape: FULL is feasible and cheap for RULES.
func TestFig4cShape(t *testing.T) {
	tb, err := Fig4c(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

// TestAblationShape: every cover variant is non-redundant — no
// neighborhood a subset of another, by brute force — and the table reports
// its size.
func TestAblationShape(t *testing.T) {
	cfg := testConfig()
	tb, err := AblationCover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := cem.NewDataset(cem.HEPTH, cfg.Scale, cfg.Seed)
	for _, v := range coverVariants {
		exp, err := v.experiment(d)
		if err != nil {
			t.Fatal(err)
		}
		sets := exp.Cover.Sets
		member := make([]map[core.EntityID]bool, len(sets))
		for i, set := range sets {
			member[i] = map[core.EntityID]bool{}
			for _, e := range set {
				member[i][e] = true
			}
		}
		for i, set := range sets {
			for j := range sets {
				if j != i && !slices.ContainsFunc(set, func(e core.EntityID) bool { return !member[j][e] }) {
					t.Fatalf("%s: neighborhood %d is contained in neighborhood %d", v.name, i, j)
				}
			}
		}
		stats := exp.Cover.ComputeStats()
		for _, row := range tb.Rows {
			if row[0] == v.name && (row[6] != fmt.Sprint(stats.Neighborhoods) || row[7] != fmt.Sprint(stats.TotalEntries)) {
				t.Errorf("%s %s: reports %s neighborhoods, Σ|C| %s; the cover has %d, %d",
					v.name, row[1], row[6], row[7], stats.Neighborhoods, stats.TotalEntries)
			}
		}
	}
}

// TestAll exercises the full suite end to end at a tiny scale.
func TestAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in short mode")
	}
	cfg := testConfig()
	cfg.Scale = 0.1
	tables, err := All(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 13 {
		t.Fatalf("tables = %d, want 13", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Errorf("%s: empty table", tb.ID)
		}
	}
}

// TestLearnedWeightsShape: perceptron-learned weights must be competitive
// with (on our synthetic corpora: better than) the paper's Alchemy-learned
// weights on held-out data.
func TestLearnedWeightsShape(t *testing.T) {
	tb, err := LearnedWeights(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tb.Rows))
	}
	// Rows come in (paper, learned) pairs per corpus.
	for i := 0; i < len(tb.Rows); i += 2 {
		paperF1 := cell(t, tb, i, 4)
		learnedF1 := cell(t, tb, i+1, 4)
		if learnedF1 < 0.7*paperF1 {
			t.Errorf("%s: learned F1 %.3f far below paper %.3f",
				tb.Rows[i][0], learnedF1, paperF1)
		}
	}
}

// TestScalingShape: per-neighborhood cost must stay near-flat while the
// corpus grows 8x (linear total growth, Theorems 3/5).
func TestScalingShape(t *testing.T) {
	cfg := testConfig()
	tb, err := Scaling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	firstSMP := cell(t, tb, 0, 5)
	lastSMP := cell(t, tb, len(tb.Rows)-1, 5)
	if firstSMP > 0 && lastSMP > 4*firstSMP {
		t.Errorf("SMP cost/neighborhood grew %.1f -> %.1f over an 8x corpus (superlinear)",
			firstSMP, lastSMP)
	}
	firstMMP := cell(t, tb, 0, 7)
	lastMMP := cell(t, tb, len(tb.Rows)-1, 7)
	if firstMMP > 0 && lastMMP > 4*firstMMP {
		t.Errorf("MMP cost/neighborhood grew %.1f -> %.1f over an 8x corpus (superlinear)",
			firstMMP, lastMMP)
	}
}
