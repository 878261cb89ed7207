package mln

import (
	"cmp"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bib"
	"repro/internal/canopy"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/similarity"
)

// ref is a test reference spec: a surface name and its true author.
type ref struct {
	name  string
	truth int
}

// buildDataset assembles a dataset from per-paper reference lists.
func buildDataset(papers [][]ref) *bib.Dataset {
	d := &bib.Dataset{Name: "test"}
	for p, authors := range papers {
		paper := bib.Paper{Title: "t", Year: 2000}
		for _, a := range authors {
			id := bib.RefID(len(d.Refs))
			d.Refs = append(d.Refs, bib.Reference{
				Name: a.name, Paper: bib.PaperID(p), True: bib.AuthorID(a.truth),
			})
			paper.Refs = append(paper.Refs, id)
		}
		d.Papers = append(d.Papers, paper)
	}
	return d
}

// allPairsCandidates derives candidates from every cross-reference pair
// with non-zero similarity level (tests bypass canopies for full control).
func allPairsCandidates(d *bib.Dataset) []Candidate {
	var out []Candidate
	for i := 0; i < d.NumRefs(); i++ {
		for j := i + 1; j < d.NumRefs(); j++ {
			lvl := similarity.StringLevel(d.Refs[i].Name, d.Refs[j].Name)
			if lvl > similarity.LevelNone {
				out = append(out, Candidate{Pair: core.MakePair(int32(i), int32(j)), Level: lvl})
			}
		}
	}
	return out
}

func newMatcher(t *testing.T, d *bib.Dataset) *Matcher {
	t.Helper()
	m, err := New(d, allPairsCandidates(d), PaperWeights())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func allRefs(d *bib.Dataset) []core.EntityID {
	out := make([]core.EntityID, d.NumRefs())
	for i := range out {
		out[i] = core.EntityID(i)
	}
	return out
}

// TestSim3MatchesAlone: a strong (level 3) pair fires with no relational
// support: +12.75 > 0.
func TestSim3MatchesAlone(t *testing.T) {
	d := buildDataset([][]ref{
		{{"Vibhor Rastogi", 0}, {"Unrelated Person", 1}},
		{{"Vibhor Rastogi", 0}, {"Someone Else", 2}},
	})
	m := newMatcher(t, d)
	out := m.Match(allRefs(d), nil, nil)
	if !out.Has(core.MakePair(0, 2)) {
		t.Fatalf("strong pair not matched: %v", out.Sorted())
	}
}

// TestSim2NeedsSupport: a single medium pair does not fire (−3.84), and a
// single mutually-supporting 2-cycle of medium pairs does not either
// (2·(−3.84) + 2·2.46 = −2.76) — the model is conservative exactly like
// the learned MLN of Appendix B.
func TestSim2NeedsSupport(t *testing.T) {
	d := buildDataset([][]ref{
		{{"V. Rastogi", 0}, {"N. Dalvi", 1}},
		{{"V. Rastogi", 0}, {"N. Dalvi", 1}},
	})
	m := newMatcher(t, d)
	out := m.Match(allRefs(d), nil, nil)
	if out.Len() != 0 {
		t.Fatalf("2-cycle of medium pairs must not fire: %v", out.Sorted())
	}
}

// TestSim2FiresWithEvidence: conditioning the coauthor pair true flips
// the medium pair: −3.84 + 2·2.46 = +1.08 > 0. This is the message-
// passing mechanism in miniature.
func TestSim2FiresWithEvidence(t *testing.T) {
	d := buildDataset([][]ref{
		{{"V. Rastogi", 0}, {"N. Dalvi", 1}},
		{{"V. Rastogi", 0}, {"N. Dalvi", 1}},
	})
	m := newMatcher(t, d)
	dalvi := core.MakePair(1, 3)
	rastogi := core.MakePair(0, 2)
	out := m.Match(allRefs(d), core.NewPairSet(dalvi), nil)
	if !out.Has(rastogi) {
		t.Fatalf("medium pair with matched coauthor must fire: %v", out.Sorted())
	}
	if !out.Has(dalvi) {
		t.Error("positive evidence inside scope must be echoed in the output")
	}
}

// TestTripleCliqueFiresCollectively: two 3-author papers by the same
// trio produce three medium pairs, each supported by the two others:
// 3·(−3.84) + 3·(2·2.46) = +3.24 > 0. None fires alone; all fire
// together — the purely-collective effect of §2.1.
func TestTripleCliqueFiresCollectively(t *testing.T) {
	d := buildDataset([][]ref{
		{{"V. Rastogi", 0}, {"N. Dalvi", 1}, {"M. Garofalakis", 2}},
		{{"V. Rastogi", 0}, {"N. Dalvi", 1}, {"M. Garofalakis", 2}},
	})
	m := newMatcher(t, d)
	out := m.Match(allRefs(d), nil, nil)
	want := core.NewPairSet(core.MakePair(0, 3), core.MakePair(1, 4), core.MakePair(2, 5))
	if !out.Equal(want) {
		t.Fatalf("triple clique = %v, want %v", out.Sorted(), want.Sorted())
	}
	// Ablation: knock out one pair with negative evidence; the other two
	// drop below threshold (2·(−3.84) + 2·2.46 = −2.76) and must vanish.
	out = m.Match(allRefs(d), nil, core.NewPairSet(core.MakePair(0, 3)))
	if out.Len() != 0 {
		t.Fatalf("after knockout, remaining pairs must not fire: %v", out.Sorted())
	}
}

// TestNegativeEvidenceBlocks: a strong pair conditioned false disappears.
func TestNegativeEvidenceBlocks(t *testing.T) {
	d := buildDataset([][]ref{
		{{"Vibhor Rastogi", 0}, {"A B", 1}},
		{{"Vibhor Rastogi", 0}, {"C D", 2}},
	})
	m := newMatcher(t, d)
	p := core.MakePair(0, 2)
	out := m.Match(allRefs(d), nil, core.NewPairSet(p))
	if out.Has(p) {
		t.Fatal("negated pair must not appear in output")
	}
}

// TestScopeRestriction: Match over a subset only reports in-scope pairs,
// and out-of-scope positive evidence still boosts in-scope pairs.
func TestScopeRestriction(t *testing.T) {
	d := buildDataset([][]ref{
		{{"V. Rastogi", 0}, {"N. Dalvi", 1}},
		{{"V. Rastogi", 0}, {"N. Dalvi", 1}},
	})
	m := newMatcher(t, d)
	rastogi := core.MakePair(0, 2)
	dalvi := core.MakePair(1, 3)
	// Scope contains only the Rastogi refs; Dalvi pair is out of scope.
	scope := []core.EntityID{0, 2}
	if got := m.Candidates(scope); len(got) != 1 || got[0] != rastogi {
		t.Fatalf("Candidates(scope) = %v", got)
	}
	out := m.Match(scope, nil, nil)
	if out.Len() != 0 {
		t.Fatalf("unsupported medium pair fired: %v", out.Sorted())
	}
	out = m.Match(scope, core.NewPairSet(dalvi), nil)
	if !out.Has(rastogi) {
		t.Fatal("out-of-scope positive evidence must boost in-scope pair")
	}
	if out.Has(dalvi) {
		t.Fatal("out-of-scope pair must not be reported")
	}
}

// TestLogScoreMatchesBruteForce: Match(all) must be the LogScore argmax
// (largest among ties) over all subsets of candidates.
func TestLogScoreMatchesBruteForce(t *testing.T) {
	d := buildDataset([][]ref{
		{{"V. Rastogi", 0}, {"N. Dalvi", 1}, {"M. Garofalakis", 2}},
		{{"V. Rastogi", 0}, {"N. Dalvi", 1}, {"M. Garofalakis", 2}},
		{{"Vibhor Rastogi", 0}, {"P. Singla", 3}},
	})
	m := newMatcher(t, d)
	cands := m.Candidates(allRefs(d))
	if len(cands) > 16 {
		t.Fatalf("test instance too large for brute force: %d", len(cands))
	}
	bestScore := math.Inf(-1)
	var best core.PairSet
	for mask := 0; mask < 1<<len(cands); mask++ {
		s := core.NewPairSet()
		for i, p := range cands {
			if mask&(1<<i) != 0 {
				s.Add(p)
			}
		}
		sc := m.LogScore(s)
		if sc > bestScore {
			bestScore, best = sc, s
		}
	}
	got := m.Match(allRefs(d), nil, nil)
	if !got.Equal(best) {
		t.Fatalf("Match = %v (score %v), brute argmax = %v (score %v)",
			got.Sorted(), m.LogScore(got), best.Sorted(), bestScore)
	}
}

// TestScoreDeltaConsistent: ScoreDelta must equal LogScore difference.
func TestScoreDeltaConsistent(t *testing.T) {
	d := buildDataset([][]ref{
		{{"V. Rastogi", 0}, {"N. Dalvi", 1}},
		{{"V. Rastogi", 0}, {"N. Dalvi", 1}},
	})
	m := newMatcher(t, d)
	rastogi, dalvi := core.MakePair(0, 2), core.MakePair(1, 3)
	s := core.NewPairSet(dalvi)
	want := m.LogScore(s.WithPair(rastogi)) - m.LogScore(s)
	got := m.ScoreDelta(rastogi, s)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("ScoreDelta = %v, want %v", got, want)
	}
	if m.ScoreDelta(rastogi, core.NewPairSet(rastogi)) != 0 {
		t.Error("ScoreDelta of a member must be 0")
	}
	if m.ScoreDelta(core.MakePair(90, 91), s) > -1e9 {
		t.Error("non-candidate delta must be the penalty")
	}
}

// TestDecideGivenMatchesDelta: DecideGiven(p, S) ⇔ ScoreDelta(p, S) ≥ 0.
func TestDecideGivenMatchesDelta(t *testing.T) {
	d := buildDataset([][]ref{
		{{"V. Rastogi", 0}, {"N. Dalvi", 1}},
		{{"V. Rastogi", 0}, {"N. Dalvi", 1}},
	})
	m := newMatcher(t, d)
	rastogi, dalvi := core.MakePair(0, 2), core.MakePair(1, 3)
	for _, s := range []core.PairSet{core.NewPairSet(), core.NewPairSet(dalvi)} {
		want := m.ScoreDelta(rastogi, s) >= 0
		if got := m.DecideGiven(rastogi, s); got != want {
			t.Fatalf("DecideGiven = %v, delta sign says %v (S=%v)", got, want, s.Sorted())
		}
	}
	if m.DecideGiven(core.MakePair(90, 91), core.NewPairSet()) {
		t.Error("non-candidate must never be decided true")
	}
}

// TestWeightsValidate rejects broken configurations.
func TestWeightsValidate(t *testing.T) {
	w := PaperWeights()
	w.Coauthor = -1
	if w.Validate() == nil {
		t.Error("negative coauthor weight accepted")
	}
	w = PaperWeights()
	w.TieEps = 0.5
	if w.Validate() == nil {
		t.Error("huge TieEps accepted")
	}
	d := buildDataset([][]ref{{{"A B", 0}}})
	if _, err := New(d, nil, w); err == nil {
		t.Error("New accepted invalid weights")
	}
}

// TestNewRejectsBadCandidates: New reports what the candidate table
// refuses (core.TestCandidateTableValidation has the cases).
func TestNewRejectsBadCandidates(t *testing.T) {
	d := buildDataset([][]ref{{{"A B", 0}, {"A B", 0}}})
	if _, err := New(d, []Candidate{{Pair: core.Pair{A: 0, B: 2}}}, PaperWeights()); !errors.Is(err, core.ErrCandidateRange) {
		t.Errorf("got %v, want core.ErrCandidateRange", err)
	}
}

// TestNewOrdersCandidates: ids follow (A, B) order whatever order the
// candidates arrive in — verified for blocking's order, established by a
// sort for any other — and the ground model is the same model either way:
// same table, same levels, same interactions, so the same matches.
func TestNewOrdersCandidates(t *testing.T) {
	env, cands := benchGround(t)
	if !slices.IsSortedFunc(cands, func(a, b Candidate) int { return cmp.Compare(a.Pair.Key(), b.Pair.Key()) }) {
		t.Fatal("blocking no longer emits candidates in (A, B) order")
	}
	ordered, err := New(env.d, cands, PaperWeights())
	if err != nil {
		t.Fatal(err)
	}
	shuffled := slices.Clone(cands)
	rand.New(rand.NewSource(5)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	before := slices.Clone(shuffled)
	m, err := New(env.d, shuffled, PaperWeights())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(shuffled, before) {
		t.Error("New reordered the caller's slice")
	}
	if !slices.Equal(m.Pairs(), ordered.Pairs()) {
		t.Fatal("shuffled candidates ground a different table")
	}
	for i, p := range m.Pairs() {
		if i > 0 && m.Pairs()[i-1].Key() >= p.Key() {
			t.Fatalf("table not ascending at id %d", i)
		}
		if m.Level(p) != ordered.Level(p) {
			t.Fatalf("level of %v differs", p)
		}
		if !slices.Equal(m.sup.Of(int32(i)), ordered.sup.Of(int32(i))) {
			t.Fatalf("interactions of %v differ", p)
		}
	}
	if !slices.Equal(m.unary, ordered.unary) {
		t.Error("shuffled candidates ground different unary scores")
	}
	all := make([]core.EntityID, env.d.NumRefs())
	for i := range all {
		all[i] = core.EntityID(i)
	}
	if got, want := m.Match(all, nil, nil), ordered.Match(all, nil, nil); !got.Equal(want) {
		t.Errorf("shuffled candidates match differently: extra %v, missing %v", got.Minus(want).Sorted(), want.Minus(got).Sorted())
	}
	// A duplicate hides anywhere in an unordered list.
	dup := append(slices.Clone(shuffled), shuffled[len(shuffled)/2])
	if _, err := New(env.d, dup, PaperWeights()); err == nil {
		t.Error("duplicate candidate accepted in an unordered list")
	}
}

// generated returns a small generated dataset with its matcher, for
// property tests on realistic structure.
func generated(t *testing.T, seed int64) (*bib.Dataset, *Matcher) {
	t.Helper()
	d := datagen.MustGenerate(datagen.HEPTHLike(0.08, seed))
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
	return d, m
}

// randomEvidence samples a sound-ish random evidence set from candidates.
func randomEvidence(rng *rand.Rand, pairs []core.Pair, frac float64) core.PairSet {
	s := core.NewPairSet()
	for _, p := range pairs {
		if rng.Float64() < frac {
			s.Add(p)
		}
	}
	return s
}

// TestIdempotenceGenerated: Definition 2 on generated data with random
// evidence, via the framework's checker.
func TestIdempotenceGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d, m := generated(t, 7)
	entities := allRefs(d)
	pairs := m.Pairs()
	for trial := 0; trial < 5; trial++ {
		pos := randomEvidence(rng, pairs, 0.05)
		neg := randomEvidence(rng, pairs, 0.05).Minus(pos)
		if err := core.CheckIdempotence(m, entities, pos, neg); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestMonotonicityGenerated: Definition 3 (i)-(iii) on generated data.
func TestMonotonicityGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d, m := generated(t, 8)
	entities := allRefs(d)
	pairs := m.Pairs()
	for trial := 0; trial < 5; trial++ {
		// (i) entity monotonicity: random subset vs all.
		var sub []core.EntityID
		for _, e := range entities {
			if rng.Float64() < 0.6 {
				sub = append(sub, e)
			}
		}
		pos := randomEvidence(rng, pairs, 0.04)
		neg := randomEvidence(rng, pairs, 0.04).Minus(pos)
		if err := core.CheckMonotoneEntities(m, sub, entities, pos, neg); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// (ii) positive evidence monotonicity.
		posBig := pos.Union(randomEvidence(rng, pairs, 0.04)).Minus(neg)
		if err := core.CheckMonotonePositive(m, entities, pos.Minus(neg), posBig, neg); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// (iii) negative evidence anti-monotonicity.
		negBig := neg.Union(randomEvidence(rng, pairs, 0.04)).Minus(pos)
		if err := core.CheckMonotoneNegative(m, entities, pos, neg.Intersect(negBig), negBig); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestSupermodularityGenerated: Definition 6 via the checker on random
// S ⊆ T and probe pairs (Proposition 4: single-Match-implicant rules).
func TestSupermodularityGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	_, m := generated(t, 9)
	pairs := m.Pairs()
	if len(pairs) == 0 {
		t.Skip("no candidates generated")
	}
	for trial := 0; trial < 200; trial++ {
		s := randomEvidence(rng, pairs, 0.2)
		extra := randomEvidence(rng, pairs, 0.2)
		tt := s.Union(extra)
		p := pairs[rng.Intn(len(pairs))]
		if err := core.CheckSupermodular(m, s, tt, p, 1e-9); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func BenchmarkMatchNeighborhood(b *testing.B) {
	d := datagen.MustGenerate(datagen.HEPTHLike(0.3, 4))
	cover := canopy.BuildCover(d, canopy.DefaultConfig())
	sp := canopy.CandidatePairs(d, cover)
	cands := make([]Candidate, len(sp))
	for i, s := range sp {
		cands[i] = Candidate{Pair: s.Pair, Level: s.Level}
	}
	m, err := New(d, cands, PaperWeights())
	if err != nil {
		b.Fatal(err)
	}
	// Largest neighborhood.
	var biggest []core.EntityID
	for _, set := range cover.Sets {
		if len(set) > len(biggest) {
			biggest = set
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Match(biggest, nil, nil)
	}
}
