package cem

import (
	"context"
	"slices"
	"testing"

	"repro/internal/bib"
	"repro/internal/canopy"
	"repro/internal/core"
	"repro/internal/eval"
)

// run is a test helper: execute a scheme through the Runner API and
// fail on error.
func run(t *testing.T, exp *Experiment, s Scheme, m string) *Result {
	t.Helper()
	r, err := exp.Runner(m)
	if err != nil {
		t.Fatalf("%s/%s: %v", s, m, err)
	}
	res, err := r.Run(context.Background(), s)
	if err != nil {
		t.Fatalf("%s/%s: %v", s, m, err)
	}
	return res
}

// TestSetupWiring checks the facade assembles a consistent experiment.
func TestSetupWiring(t *testing.T) {
	d := NewDataset(DBLP, 0.2, 3)
	exp, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	if !exp.Cover.IsCover() {
		t.Error("cover does not cover all references")
	}
	if !exp.Cover.IsTotal(d.Coauthor()) {
		t.Error("cover not total w.r.t. Coauthor (Definition 7)")
	}
	if len(exp.Candidates) == 0 {
		t.Error("no candidate pairs")
	}
	for _, name := range []string{MatcherMLN, MatcherRules} {
		r, err := exp.Runner(name)
		if err != nil {
			t.Fatal(err)
		}
		if n := r.Matcher().(interface{ NumPairs() int }).NumPairs(); n != len(exp.Candidates) {
			t.Errorf("%s grounds %d pairs, the experiment has %d candidates", name, n, len(exp.Candidates))
		}
	}
	if exp.Truth.Len() == 0 {
		t.Error("no ground-truth pairs")
	}
}

// TestTruthIsTruePairs: the experiment's truth set is exactly
// Dataset.TruePairs — on generated corpora, and on records whose gold labels
// are sparse, negative (unknown) or shared by every record.
func TestTruthIsTruePairs(t *testing.T) {
	datasets := []*bib.Dataset{NewDataset(HEPTH, 0.2, 3), NewDataset(DBLP, 0.2, 3), NewDataset(People, 0.2, 3)}
	for _, golds := range [][]int32{{7, -1, 1 << 30, 7, -5, 1 << 30, 7, -1, 0}, {3, 3, 3, 3}, {-1, -1}, {5}} {
		recs := make([]bib.Record, len(golds))
		for i, g := range golds {
			recs[i] = bib.Record{Name: "A. Smith", Group: int32(i / 2), Gold: g}
		}
		d, err := bib.DatasetFromRecords("golds", recs)
		if err != nil {
			t.Fatal(err)
		}
		datasets = append(datasets, d)
	}
	for _, d := range datasets {
		want := core.NewPairSet()
		for p := range d.TruePairs() {
			want.Add(core.MakePair(p[0], p[1]))
		}
		if truth := truthOf(d); !truth.Equal(want) {
			t.Errorf("%s: truth has %d pairs, TruePairs %d, or a pair differs", d.Name, truth.Len(), want.Len())
		}
	}
}

// TestNewDatasetKinds covers the three presets and determinism.
func TestNewDatasetKinds(t *testing.T) {
	for _, kind := range []DatasetKind{HEPTH, DBLP, DBLPBig} {
		d := NewDataset(kind, 0.1, 5)
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
		d2 := NewDataset(kind, 0.1, 5)
		if d.NumRefs() != d2.NumRefs() {
			t.Errorf("%s: generation not deterministic", kind)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown dataset kind must panic")
		}
	}()
	NewDataset("nope", 1, 1)
}

// TestRunRejectsBadArgs: unknown schemes/matchers error cleanly.
func TestRunRejectsBadArgs(t *testing.T) {
	d := NewDataset(DBLP, 0.1, 3)
	exp, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Runner("psychic"); err == nil {
		t.Error("Runner accepted an unregistered matcher")
	}
	for _, bad := range []struct {
		scheme  Scheme
		matcher string
		why     string
	}{
		{"warp", MatcherMLN, "unknown scheme accepted"},
		{SchemeMMP, MatcherRules, "MMP with the Type-I RULES matcher must fail"},
		{SchemeUB, MatcherRules, "UB with the RULES matcher must fail (no DecideGiven)"},
	} {
		r, err := exp.Runner(bad.matcher)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(context.Background(), bad.scheme); err == nil {
			t.Error(bad.why)
		}
	}
}

// TestPaperShapeMLN asserts the paper's headline orderings on both
// corpora (Figures 3(a)–3(c)): precision near 1 for every scheme;
// recall NO-MP ≤ SMP ≤ MMP; MMP sound AND complete w.r.t. FULL
// (completeness 1 — the §6.1 result); UB at least FULL's recall.
func TestPaperShapeMLN(t *testing.T) {
	for _, kind := range []DatasetKind{HEPTH, DBLP} {
		d := NewDataset(kind, 0.35, 42)
		exp, err := New(d)
		if err != nil {
			t.Fatal(err)
		}
		nomp := run(t, exp, SchemeNoMP, MatcherMLN)
		smp := run(t, exp, SchemeSMP, MatcherMLN)
		mmp := run(t, exp, SchemeMMP, MatcherMLN)
		full := run(t, exp, SchemeFull, MatcherMLN)
		ub := run(t, exp, SchemeUB, MatcherMLN)

		rN := exp.Evaluate(nomp).PRF
		rS := exp.Evaluate(smp).PRF
		rM := exp.Evaluate(mmp).PRF
		rF := exp.Evaluate(full).PRF
		rU := exp.Evaluate(ub).PRF

		for name, p := range map[string]float64{
			"NO-MP": rN.Precision, "SMP": rS.Precision, "MMP": rM.Precision,
		} {
			if p < 0.85 {
				t.Errorf("%s: %s precision %.3f below 0.85", kind, name, p)
			}
		}
		if !(rN.Recall <= rS.Recall && rS.Recall <= rM.Recall) {
			t.Errorf("%s: recall ordering violated: NO-MP %.3f, SMP %.3f, MMP %.3f",
				kind, rN.Recall, rS.Recall, rM.Recall)
		}
		if rM.Recall <= rN.Recall {
			t.Errorf("%s: MMP gained nothing over NO-MP (%.3f vs %.3f)",
				kind, rM.Recall, rN.Recall)
		}
		// Soundness: every scheme ⊆ FULL (Theorems 2 and 4).
		for name, res := range map[string]*Result{"NO-MP": nomp, "SMP": smp, "MMP": mmp} {
			if s := eval.Soundness(res.Matches, full.Matches); s < 1 {
				t.Errorf("%s: %s unsound vs FULL: %.4f", kind, name, s)
			}
		}
		// Completeness: MMP recovers the full run exactly (§6.1).
		if c := eval.Completeness(mmp.Matches, full.Matches); c < 1 {
			t.Errorf("%s: MMP completeness vs FULL = %.4f, want 1", kind, c)
		}
		// UB upper-bounds the full run's recall.
		if rU.Recall < rF.Recall {
			t.Errorf("%s: UB recall %.3f below FULL %.3f", kind, rU.Recall, rF.Recall)
		}
	}
}

// TestPaperShapeRules asserts Appendix C: SMP equals FULL for the RULES
// matcher, both at least NO-MP; and MMP/UB are rejected for Type-I.
func TestPaperShapeRules(t *testing.T) {
	for _, kind := range []DatasetKind{HEPTH, DBLP} {
		d := NewDataset(kind, 0.35, 42)
		exp, err := New(d)
		if err != nil {
			t.Fatal(err)
		}
		nomp := run(t, exp, SchemeNoMP, MatcherRules)
		smp := run(t, exp, SchemeSMP, MatcherRules)
		full := run(t, exp, SchemeFull, MatcherRules)
		if !smp.Matches.Equal(full.Matches) {
			t.Errorf("%s: SMP != FULL for RULES (%d vs %d matches)",
				kind, smp.Matches.Len(), full.Matches.Len())
		}
		if !nomp.Matches.Subset(smp.Matches) {
			t.Errorf("%s: SMP lost NO-MP matches", kind)
		}
	}
}

// TestNeighborhoodRegimes: the corpus-level contrast of §6.1 — the
// DBLP-like corpus produces more, smaller neighborhoods than HEPTH-like.
func TestNeighborhoodRegimes(t *testing.T) {
	hep, err := New(NewDataset(HEPTH, 0.35, 42))
	if err != nil {
		t.Fatal(err)
	}
	dbl, err := New(NewDataset(DBLP, 0.35, 42))
	if err != nil {
		t.Fatal(err)
	}
	hs, ds := hep.Cover.ComputeStats(), dbl.Cover.ComputeStats()
	if ds.MeanSize >= hs.MeanSize {
		t.Errorf("DBLP mean neighborhood %.1f must be below HEPTH %.1f", ds.MeanSize, hs.MeanSize)
	}
	// Per reference, DBLP yields more neighborhoods.
	hRate := float64(hs.Neighborhoods) / float64(hep.Dataset.NumRefs())
	dRate := float64(ds.Neighborhoods) / float64(dbl.Dataset.NumRefs())
	if dRate <= hRate {
		t.Errorf("DBLP neighborhoods/ref %.3f must exceed HEPTH %.3f", dRate, hRate)
	}
}

// TestTransitiveClosureHelper: closure connects chains and is idempotent.
func TestTransitiveClosureHelper(t *testing.T) {
	d := NewDataset(DBLP, 0.1, 3)
	exp, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	chain := core.NewPairSet(core.MakePair(0, 1), core.MakePair(1, 2))
	closed := exp.TransitiveClosure(chain)
	if !closed.Has(core.MakePair(0, 2)) {
		t.Error("closure missing chain pair")
	}
	if !exp.TransitiveClosure(closed).Equal(closed) {
		t.Error("closure not idempotent")
	}
}

// TestRunGridHonorsRunnerOptions: the run record Table 1's grid clock
// replays comes from the runner's options on any placement, the sharded
// backend included — progress fires once per evaluation, in the reduce
// order of RunStats.ActiveSizes (skipped re-activations are in neither),
// with 1-based nondecreasing rounds. UB has no rounds and records nothing.
func TestRunGridHonorsRunnerOptions(t *testing.T) {
	exp, err := New(NewDataset(DBLP, 0.2, 11))
	if err != nil {
		t.Fatal(err)
	}
	var rounds []int
	record := WithProgress(func(e core.ProgressEvent) { rounds = append(rounds, e.Round) })
	r, err := exp.Runner(MatcherMLN, WithShardCount(2), record)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(context.Background(), SchemeSMP)
	if err != nil {
		t.Fatal(err)
	}
	stats := res.Stats
	if len(rounds) != stats.Evaluations || len(stats.ActiveSizes) != stats.Evaluations {
		t.Errorf("progress events = %d, active sizes = %d, want the run's %d evaluations",
			len(rounds), len(stats.ActiveSizes), stats.Evaluations)
	}
	if stats.Skips == 0 {
		t.Error("no re-activation was skipped; the event/evaluation identity was not exercised")
	}
	if len(rounds) == 0 || rounds[0] != 1 || !slices.IsSorted(rounds) || rounds[len(rounds)-1] < 2 {
		t.Errorf("progress rounds run %v…, want 1-based, nondecreasing and reaching ≥ 2", rounds[:min(len(rounds), 5)])
	}
	rounds = nil
	ub, err := exp.Runner(MatcherMLN, WithShardCount(2), record)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ub.Run(context.Background(), SchemeUB); err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 0 {
		t.Errorf("UB recorded %d progress events; it has no rounds", len(rounds))
	}
}

// TestEvaluateBCubed: the cluster metric is consistent with the pairwise
// one — a sound high-precision match set yields high B³ precision, and
// richer schemes never lower B³ recall.
func TestEvaluateBCubed(t *testing.T) {
	d := NewDataset(DBLP, 0.25, 17)
	exp, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	nomp := run(t, exp, SchemeNoMP, MatcherMLN)
	mmp := run(t, exp, SchemeMMP, MatcherMLN)
	bN, bM := exp.EvaluateBCubed(nomp), exp.EvaluateBCubed(mmp)
	if bN.Precision < 0.9 || bM.Precision < 0.9 {
		t.Errorf("B³ precision low: NO-MP %.3f, MMP %.3f", bN.Precision, bM.Precision)
	}
	if bM.Recall < bN.Recall {
		t.Errorf("MMP lowered B³ recall: %.3f < %.3f", bM.Recall, bN.Recall)
	}
	// Singleton prediction bound: recall equals per-entity 1/|cluster|
	// average; any real matching must beat it.
	empty := &Result{Result: &core.Result{Scheme: "empty", Matches: core.NewPairSet()}}
	if exp.EvaluateBCubed(empty).Recall >= bM.Recall {
		t.Error("MMP B³ recall not above the singleton baseline")
	}
}

// TestEvaluateAgainst exercises the reference-based report path.
func TestEvaluateAgainst(t *testing.T) {
	d := NewDataset(DBLP, 0.2, 11)
	exp, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	full := run(t, exp, SchemeFull, MatcherMLN)
	smp := run(t, exp, SchemeSMP, MatcherMLN)
	rep := exp.EvaluateAgainst(smp, full.Matches)
	if rep.Soundness < 1 {
		t.Errorf("SMP unsound vs FULL: %.4f", rep.Soundness)
	}
	if rep.Completeness <= 0 {
		t.Errorf("bogus completeness %v", rep.Completeness)
	}
}

// TestSetupScoresEachNamePairOnce: a cold New — cover construction, then
// candidate enumeration — costs one NameLevel evaluation per distinct
// unordered pair of name classes either stage asks about, because both read
// the dataset's one name table. Run apart, each on its own freshly built
// dataset, the two stages score every pair of the canopies twice over; that
// sum is what a table per stage cost.
func TestSetupScoresEachNamePairOnce(t *testing.T) {
	fresh := func() *bib.Dataset { return NewDataset(People, 0.25, 42) }
	d := fresh()
	exp, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	names := d.Names()
	once := names.Scored()

	// Every pair candidate enumeration needs — two distinct classes sharing
	// a neighborhood — is in the table New left behind, so asking for all of
	// them again scores nothing.
	needed := map[[2]int32]bool{}
	for _, set := range exp.Cover.Sets {
		for i, a := range set {
			for _, b := range set[i+1:] {
				if x, y := names.Class(a), names.Class(b); x != y {
					needed[[2]int32{min(x, y), max(x, y)}] = true
					names.Level(x, y)
				}
			}
		}
	}
	if len(needed) == 0 || once < len(needed) {
		t.Fatalf("New scored %d class pairs, its neighborhoods hold %d distinct ones", once, len(needed))
	}
	if again := names.Scored(); again != once {
		t.Errorf("%d class pairs of the cover were not scored by New", again-once)
	}

	coverOnly := fresh()
	cover := canopy.BuildCover(coverOnly, DefaultOptions().Canopy)
	candidatesOnly := fresh()
	canopy.CandidatePairs(candidatesOnly, cover)
	apart := coverOnly.Names().Scored() + candidatesOnly.Names().Scored()
	if candidatesOnly.Names().Scored() != len(needed) {
		t.Errorf("candidate enumeration alone scored %d pairs, the cover holds %d", candidatesOnly.Names().Scored(), len(needed))
	}
	if once >= apart || once > coverOnly.Names().Scored()+len(needed) {
		t.Errorf("New scored %d class pairs; cover construction alone scores %d and candidate enumeration alone %d",
			once, coverOnly.Names().Scored(), candidatesOnly.Names().Scored())
	}
	t.Logf("class pairs scored: %d by New, %d + %d by the two stages apart", once, coverOnly.Names().Scored(), candidatesOnly.Names().Scored())
}
