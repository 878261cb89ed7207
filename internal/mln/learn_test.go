package mln

import (
	"testing"

	"repro/internal/canopy"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/eval"
)

// learnSetup builds a labeled corpus, cover, matcher and truth set.
func learnSetup(t *testing.T, scale float64, seed int64) (*Matcher, *core.Cover, core.PairSet, []core.EntityID) {
	t.Helper()
	d := datagen.MustGenerate(datagen.DBLPLike(scale, seed))
	cover := canopy.BuildCover(d, canopy.DefaultConfig())
	sp := canopy.CandidatePairs(d, cover)
	cands := make([]Candidate, len(sp))
	for i, s := range sp {
		cands[i] = Candidate{Pair: s.Pair, Level: s.Level}
	}
	m, err := New(d, cands, PaperWeights())
	if err != nil {
		t.Fatal(err)
	}
	truth := core.NewPairSet()
	for p := range d.TruePairs() {
		truth.Add(core.MakePair(p[0], p[1]))
	}
	all := make([]core.EntityID, d.NumRefs())
	for i := range all {
		all[i] = core.EntityID(i)
	}
	return m, cover, truth, all
}

func TestSetWeights(t *testing.T) {
	m, _, _, all := learnSetup(t, 0.1, 3)
	before := m.Match(all, nil, nil)
	// Zeroing the strong-pair weight must lose matches.
	w := PaperWeights()
	w.Sim3 = -5
	if err := m.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	after := m.Match(all, nil, nil)
	if after.Len() >= before.Len() {
		t.Errorf("suppressing Sim3 did not shrink matches: %d -> %d", before.Len(), after.Len())
	}
	if m.CurrentWeights().Sim3 != -5 {
		t.Errorf("CurrentWeights not updated")
	}
	// Restore and verify identical output (applyWeights is exact).
	if err := m.SetWeights(PaperWeights()); err != nil {
		t.Fatal(err)
	}
	if !m.Match(all, nil, nil).Equal(before) {
		t.Error("restoring weights did not restore the output")
	}
	// Invalid weights rejected and state unchanged.
	bad := PaperWeights()
	bad.Coauthor = -2
	if err := m.SetWeights(bad); err == nil {
		t.Error("invalid weights accepted")
	}
}

func TestLearnConfigValidation(t *testing.T) {
	m, cover, truth, _ := learnSetup(t, 0.08, 5)
	if _, err := Learn(m, cover, truth, LearnConfig{Epochs: 0, Rate: 1}); err == nil {
		t.Error("zero epochs accepted")
	}
	if _, err := Learn(m, cover, truth, LearnConfig{Epochs: 1, Rate: 0}); err == nil {
		t.Error("zero rate accepted")
	}
}

// TestLearnRecoversUsefulWeights: starting from deliberately broken
// weights (everything negative), the perceptron must recover weights
// whose full-corpus F1 is close to the paper weights' F1 on held-out
// data from the same distribution.
func TestLearnRecoversUsefulWeights(t *testing.T) {
	// Train on one corpus.
	trainM, trainCover, trainTruth, _ := learnSetup(t, 0.25, 11)
	broken := Weights{Sim1: -1, Sim2: -1, Sim3: -1, Coauthor: 0, TieEps: 1e-9}
	if err := trainM.SetWeights(broken); err != nil {
		t.Fatal(err)
	}
	learned, err := Learn(trainM, trainCover, trainTruth, DefaultLearnConfig())
	if err != nil {
		t.Fatal(err)
	}
	if learned.Coauthor < 0 {
		t.Fatalf("learned coauthor weight negative: %+v", learned)
	}
	// The learner need not reproduce the paper's weight *vector* — many
	// vectors fit (e.g. a large coauthor weight can subsume the strong-
	// similarity rule) — only a competitive decision boundary.

	// Evaluate on a fresh corpus (different seed).
	testM, _, testTruth, all := learnSetup(t, 0.25, 99)
	paperOut := testM.Match(all, nil, nil)
	paperF1 := eval.PrecisionRecall(paperOut, testTruth).F1

	if err := testM.SetWeights(learned); err != nil {
		t.Fatal(err)
	}
	learnedOut := testM.Match(all, nil, nil)
	learnedF1 := eval.PrecisionRecall(learnedOut, testTruth).F1

	t.Logf("learned weights %+v: F1 %.3f vs paper %.3f", learned, learnedF1, paperF1)
	if learnedF1 < 0.7*paperF1 {
		t.Errorf("learned F1 %.3f far below paper weights' %.3f", learnedF1, paperF1)
	}
}

// TestLearnRestoresWeights: Learn must leave the matcher's weights as it
// found them.
func TestLearnRestoresWeights(t *testing.T) {
	m, cover, truth, all := learnSetup(t, 0.1, 7)
	before := m.Match(all, nil, nil)
	if _, err := Learn(m, cover, truth, LearnConfig{Epochs: 2, Rate: 0.5, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if m.CurrentWeights() != PaperWeights() {
		t.Errorf("weights mutated by Learn: %+v", m.CurrentWeights())
	}
	if !m.Match(all, nil, nil).Equal(before) {
		t.Error("matcher output changed after Learn")
	}
}

func TestFeatureCounts(t *testing.T) {
	d := buildDataset([][]ref{
		{{"V. Rastogi", 0}, {"N. Dalvi", 1}},
		{{"V. Rastogi", 0}, {"N. Dalvi", 1}},
	})
	m := newMatcher(t, d)
	all := allRefs(d)
	ids := m.ScopeIDs(all)
	rastogi, dalvi := core.MakePair(0, 2), core.MakePair(1, 3)

	f := m.featureCounts(ids, core.NewPairSet(rastogi, dalvi))
	if f.sim[2] != 2 { // both medium
		t.Errorf("medium count = %v", f.sim[2])
	}
	// One interaction, count 2 (both role assignments), counted once.
	if f.coau != 2 {
		t.Errorf("coauthor groundings = %v, want 2", f.coau)
	}
	// Single pair: no groundings fire.
	f = m.featureCounts(ids, core.NewPairSet(rastogi))
	if f.coau != 0 || f.sim[2] != 1 {
		t.Errorf("single-pair features = %+v", f)
	}
}
