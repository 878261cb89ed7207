package rules

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bib"
	"repro/internal/canopy"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/similarity"
	"repro/internal/unionfind"
)

type ref struct {
	name  string
	truth int
}

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
	m, err := New(d, allPairsCandidates(d), PaperRules())
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

// TestRule1Strong: level-3 pairs fire unconditionally.
func TestRule1Strong(t *testing.T) {
	d := buildDataset([][]ref{
		{{"Vibhor Rastogi", 0}, {"Aaaa Bbbb", 1}},
		{{"Vibhor Rastogi", 0}, {"Cccc Dddd", 2}},
	})
	m := newMatcher(t, d)
	out := m.Match(allRefs(d), nil, nil)
	if !out.Has(core.MakePair(0, 2)) {
		t.Fatalf("rule 1 did not fire: %v", out.Sorted())
	}
}

// TestRule2Medium: level-2 pairs need one matched coauthor pair; unlike
// the MLN there is no collective joint move, so an isolated 2-cycle stays
// unmatched until evidence arrives and then cascades.
func TestRule2Medium(t *testing.T) {
	d := buildDataset([][]ref{
		{{"V. Rastogi", 0}, {"N. Dalvi", 1}},
		{{"V. Rastogi", 0}, {"N. Dalvi", 1}},
	})
	m := newMatcher(t, d)
	if out := m.Match(allRefs(d), nil, nil); out.Len() != 0 {
		t.Fatalf("no evidence: expected bootstrapping problem, got %v", out.Sorted())
	}
	dalvi := core.MakePair(1, 3)
	out := m.Match(allRefs(d), core.NewPairSet(dalvi), nil)
	if !out.Has(core.MakePair(0, 2)) {
		t.Fatalf("rule 2 did not fire with evidence: %v", out.Sorted())
	}
}

// TestRule3Weak: level-1 pairs need two distinct matched coauthor pairs.
func TestRule3Weak(t *testing.T) {
	// "J. Kumara" vs "Jim Kumria": weak similarity (level 1).
	if similarity.StringLevel("J. Kumara", "Jim Kumria") != similarity.LevelWeak {
		t.Fatal("probe pair no longer level-1 under current thresholds; pick a new one")
	}
	d := buildDataset([][]ref{
		{{"J. Kumara", 0}, {"Vibhor Rastogi", 1}, {"Nilesh Dalvi", 2}},
		{{"Jim Kumria", 0}, {"Vibhor Rastogi", 1}, {"Nilesh Dalvi", 2}},
	})
	m := newMatcher(t, d)
	out := m.Match(allRefs(d), nil, nil)
	// Both strong coauthor pairs fire by rule 1, giving the weak pair its
	// two supports; the fixpoint then derives it.
	if !out.Has(core.MakePair(0, 3)) {
		t.Fatalf("rule 3 did not fire: %v", out.Sorted())
	}
	// With only ONE strong coauthor, rule 3 must not fire.
	d2 := buildDataset([][]ref{
		{{"Jim Kumar", 0}, {"Vibhor Rastogi", 1}},
		{{"Jan Kumar", 0}, {"Vibhor Rastogi", 1}},
	})
	m2 := newMatcher(t, d2)
	out2 := m2.Match(allRefs(d2), nil, nil)
	if out2.Has(core.MakePair(0, 2)) {
		t.Fatalf("rule 3 fired with single support: %v", out2.Sorted())
	}
}

// TestIterativeCascade: rule firings feed later firings (the iterative
// collective behavior): a strong pair unlocks a medium pair, which
// unlocks another medium pair through a different paper chain.
func TestIterativeCascade(t *testing.T) {
	d := buildDataset([][]ref{
		{{"Vibhor Rastogi", 0}, {"N. Dalvi", 1}},
		{{"Vibhor Rastogi", 0}, {"N. Dalvi", 1}, {"M. Garofalakis", 2}},
		{{"M. Garofalakis", 2}, {"P. Singla", 3}},
	})
	// Papers 0,1 share Rastogi (strong) → (Dalvi, Dalvi) medium fires.
	m := newMatcher(t, d)
	out := m.Match(allRefs(d), nil, nil)
	if !out.Has(core.MakePair(0, 2)) {
		t.Fatal("strong anchor missing")
	}
	if !out.Has(core.MakePair(1, 3)) {
		t.Fatalf("cascaded medium pair missing: %v", out.Sorted())
	}
}

// TestTransitiveClosure: matched chains stay open inside Match (the
// paper's configuration); closure is a harness post-processing step.
func TestTransitiveClosure(t *testing.T) {
	d := buildDataset([][]ref{
		{{"Vibhor Rastogi", 0}, {"X Y", 9}},
		{{"Vibhor Rastogi", 0}, {"Z W", 8}},
		{{"Vibhor Rastogi", 0}, {"Q R", 7}},
	})
	m := newMatcher(t, d)
	out := m.Match(allRefs(d), nil, nil)
	// All three Rastogi refs pair up strongly regardless of closure.
	if !out.Has(core.MakePair(0, 2)) || !out.Has(core.MakePair(2, 4)) || !out.Has(core.MakePair(0, 4)) {
		t.Fatalf("clique incomplete: %v", out.Sorted())
	}

	// An open chain given as evidence stays open.
	d2 := buildDataset([][]ref{
		{{"Aaaa Bbbb", 0}},
		{{"Cccc Dddd", 0}},
		{{"Eeee Ffff", 0}},
	})
	chain := core.NewPairSet(core.MakePair(0, 1), core.MakePair(1, 2))
	none := similarity.LevelNone
	m2, err := New(d2, []Candidate{
		{Pair: core.MakePair(0, 1), Level: none}, {Pair: core.MakePair(0, 2), Level: none}, {Pair: core.MakePair(1, 2), Level: none},
	}, PaperRules())
	if err != nil {
		t.Fatal(err)
	}
	out2 := m2.Match(allRefs(d2), chain, nil)
	if out2.Has(core.MakePair(0, 2)) || !out2.Equal(chain) {
		t.Fatalf("matcher applied closure: %v", out2.Sorted())
	}
}

// TestNegativeEvidence: negated pairs never fire nor close.
func TestNegativeEvidence(t *testing.T) {
	d := buildDataset([][]ref{
		{{"Vibhor Rastogi", 0}, {"A B", 1}},
		{{"Vibhor Rastogi", 0}, {"C D", 2}},
	})
	m := newMatcher(t, d)
	p := core.MakePair(0, 2)
	out := m.Match(allRefs(d), nil, core.NewPairSet(p))
	if out.Has(p) {
		t.Fatal("negated strong pair fired")
	}
}

// TestScopeRestriction: only in-scope pairs are output; global evidence
// still supports in-scope rules.
func TestScopeRestriction(t *testing.T) {
	d := buildDataset([][]ref{
		{{"V. Rastogi", 0}, {"N. Dalvi", 1}},
		{{"V. Rastogi", 0}, {"N. Dalvi", 1}},
	})
	m := newMatcher(t, d)
	scope := []core.EntityID{0, 2}
	dalvi := core.MakePair(1, 3)
	out := m.Match(scope, core.NewPairSet(dalvi), nil)
	if !out.Has(core.MakePair(0, 2)) {
		t.Fatal("in-scope pair with global evidence missing")
	}
	if out.Has(dalvi) {
		t.Fatal("out-of-scope pair reported")
	}
}

func generated(t *testing.T, seed int64, scale float64) (*bib.Dataset, *Matcher, *core.Cover) {
	t.Helper()
	d := datagen.MustGenerate(datagen.HEPTHLike(scale, seed))
	cover := canopy.BuildCover(d, canopy.DefaultConfig())
	sp := canopy.CandidatePairs(d, cover)
	cands := make([]Candidate, len(sp))
	for i, s := range sp {
		cands[i] = Candidate{Pair: s.Pair, Level: s.Level}
	}
	m, err := New(d, cands, PaperRules())
	if err != nil {
		t.Fatal(err)
	}
	return d, m, cover
}

// TestWellBehavedGenerated: Proposition 5 — the fragment is monotone (and
// idempotent), checked on generated data with random evidence.
func TestWellBehavedGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d, m, _ := generated(t, 11, 0.08)
	entities := allRefs(d)
	pairs := m.CandidateTable().Pairs()
	randomEvidence := func(frac float64) core.PairSet {
		s := core.NewPairSet()
		for _, p := range pairs {
			if rng.Float64() < frac {
				s.Add(p)
			}
		}
		return s
	}
	for trial := 0; trial < 4; trial++ {
		pos := randomEvidence(0.05)
		neg := randomEvidence(0.05).Minus(pos)
		if err := core.CheckIdempotence(m, entities, pos, neg); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var sub []core.EntityID
		for _, e := range entities {
			if rng.Float64() < 0.6 {
				sub = append(sub, e)
			}
		}
		if err := core.CheckMonotoneEntities(m, sub, entities, pos, neg); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		posBig := pos.Union(randomEvidence(0.05)).Minus(neg)
		if err := core.CheckMonotonePositive(m, entities, pos.Minus(neg), posBig, neg); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		negBig := neg.Union(randomEvidence(0.05)).Minus(pos)
		if err := core.CheckMonotoneNegative(m, entities, pos, neg.Intersect(negBig), negBig); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// closure returns the transitive closure of a match set over n entities
// (the end-of-run closure step Appendix A prescribes).
func closure(matches core.PairSet, n int) core.PairSet {
	dsu := unionfind.New(n)
	for p := range matches.All() {
		dsu.Union(int(p.A), int(p.B))
	}
	members := map[int][]core.EntityID{}
	for i := 0; i < n; i++ {
		r := dsu.Find(i)
		members[r] = append(members[r], core.EntityID(i))
	}
	out := core.NewPairSet()
	for _, comp := range members {
		for i := 0; i < len(comp); i++ {
			for j := i + 1; j < len(comp); j++ {
				out.Add(core.MakePair(comp[i], comp[j]))
			}
		}
	}
	return out
}

// TestSMPCompleteVsFull: the Appendix C headline — SMP over a total cover
// reproduces the FULL run of RULES *exactly* (soundness and completeness
// both 1), in the paper's configuration (no interleaved closure; closure
// is an end-of-run step that then also agrees).
func TestSMPCompleteVsFull(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		d, m, cover := generated(t, seed, 0.12)
		cfg := core.Config{Cover: cover, Matcher: m, Relation: d.Coauthor()}
		smp, err := core.SMP(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		full, err := core.Full(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !smp.Matches.Equal(full.Matches) {
			extra := smp.Matches.Minus(full.Matches)
			missing := full.Matches.Minus(smp.Matches)
			t.Fatalf("seed %d: SMP != FULL: extra %v, missing %v",
				seed, extra.Sorted(), missing.Sorted())
		}
		n := d.NumRefs()
		if !closure(smp.Matches, n).Equal(closure(full.Matches, n)) {
			t.Fatalf("seed %d: closed outputs diverge", seed)
		}
	}
}

func TestNewValidation(t *testing.T) {
	d := buildDataset([][]ref{{{"A B", 0}, {"A B", 0}}})
	if _, err := New(d, nil, []Rule{{Level: 1, MinCoauthorMatches: -1}}); err == nil {
		t.Error("negative rule accepted")
	}
	// New reports what the candidate table refuses
	// (core.TestCandidateTableValidation has the cases).
	if _, err := New(d, []Candidate{{Pair: core.Pair{A: 0, B: 2}}}, PaperRules()); !errors.Is(err, core.ErrCandidateRange) {
		t.Errorf("got %v, want core.ErrCandidateRange", err)
	}
	// Candidates out of (A, B) order keep their levels: the columns
	// follow the table's order.
	d3 := buildDataset([][]ref{{{"A B", 0}, {"A B", 0}, {"A B", 0}}})
	shuffled := []Candidate{
		{Pair: core.MakePair(1, 2), Level: similarity.LevelStrong},
		{Pair: core.MakePair(0, 2), Level: similarity.LevelNone},
		{Pair: core.MakePair(0, 1), Level: similarity.LevelStrong},
	}
	m, err := New(d3, shuffled, PaperRules())
	if err != nil {
		t.Fatal(err)
	}
	want := core.NewPairSet(core.MakePair(0, 1), core.MakePair(1, 2))
	if got := m.Match(allRefs(d3), nil, nil); !got.Equal(want) {
		t.Errorf("unsorted candidates: Match = %v, want %v", got.Sorted(), want.Sorted())
	}
	if shuffled[0].Pair != core.MakePair(1, 2) {
		t.Error("New reordered the caller's slice")
	}
}

// TestValidate exercises each typed rejection plus the accepted shapes.
func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		rs   []Rule
		want error
	}{
		{"empty", nil, nil},
		{"paper", PaperRules(), nil},
		{"single", []Rule{{Level: similarity.LevelWeak, MinCoauthorMatches: 5}}, nil},
		{"negative support", []Rule{{Level: similarity.LevelStrong, MinCoauthorMatches: -1}}, ErrNegativeSupport},
		{"level zero", []Rule{{Level: similarity.LevelNone, MinCoauthorMatches: 0}}, ErrUnknownLevel},
		{"level too high", []Rule{{Level: similarity.LevelStrong + 1, MinCoauthorMatches: 0}}, ErrUnknownLevel},
		{"negative level", []Rule{{Level: -1, MinCoauthorMatches: 0}}, ErrUnknownLevel},
		{"duplicate level", []Rule{
			{Level: similarity.LevelMedium, MinCoauthorMatches: 1},
			{Level: similarity.LevelStrong, MinCoauthorMatches: 0},
			{Level: similarity.LevelMedium, MinCoauthorMatches: 2},
		}, ErrDuplicateLevel},
	}
	d := buildDataset([][]ref{{{"A B", 0}}})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Validate(tc.rs)
			if !errors.Is(err, tc.want) {
				t.Fatalf("Validate = %v, want %v", err, tc.want)
			}
			_, newErr := New(d, nil, tc.rs)
			if !errors.Is(newErr, tc.want) {
				t.Fatalf("New = %v, want %v", newErr, tc.want)
			}
		})
	}
}

func BenchmarkRulesFull(b *testing.B) {
	d := datagen.MustGenerate(datagen.HEPTHLike(0.3, 6))
	cover := canopy.BuildCover(d, canopy.DefaultConfig())
	sp := canopy.CandidatePairs(d, cover)
	cands := make([]Candidate, len(sp))
	for i, s := range sp {
		cands[i] = Candidate{Pair: s.Pair, Level: s.Level}
	}
	m, err := New(d, cands, PaperRules())
	if err != nil {
		b.Fatal(err)
	}
	entities := allRefs(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Match(entities, nil, nil)
	}
}
