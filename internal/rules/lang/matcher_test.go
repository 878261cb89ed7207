package lang

import (
	"os"
	"strings"
	"testing"

	"repro/internal/bib"
	"repro/internal/canopy"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/rules"
	"repro/internal/similarity"
)

// peopleDataset builds a dataset whose "papers" are co-occurrence groups
// (households, order snapshots, …) and whose reference names are
// composite typed-field keys.
func peopleDataset(groups [][]string) *bib.Dataset {
	d := &bib.Dataset{Name: "people-test"}
	for g, keys := range groups {
		group := bib.Paper{Title: "group", Year: 2026}
		for _, k := range keys {
			id := bib.RefID(len(d.Refs))
			d.Refs = append(d.Refs, bib.Reference{Name: k, Paper: bib.PaperID(g)})
			group.Refs = append(group.Refs, id)
		}
		d.Papers = append(d.Papers, group)
	}
	return d
}

func allPairs(d *bib.Dataset, lvl similarity.Level) []rules.Candidate {
	var out []rules.Candidate
	for i := 0; i < d.NumRefs(); i++ {
		for j := i + 1; j < d.NumRefs(); j++ {
			out = append(out, rules.Candidate{Pair: core.MakePair(int32(i), int32(j)), Level: lvl})
		}
	}
	return out
}

// newMatcher grounds the plan the way the registry does: a table of the
// candidates, blocking's levels as a column over it.
func newMatcher(pl *Plan, d *bib.Dataset, cands []rules.Candidate) (*rules.Matcher, error) {
	table, cands, err := core.TableOf(d.NumRefs(), cands, func(c rules.Candidate) core.Pair { return c.Pair })
	if err != nil {
		return nil, err
	}
	levels := make([]similarity.Level, len(cands))
	for i, c := range cands {
		levels[i] = c.Level
	}
	return pl.NewMatcher(d, table, levels)
}

func entities(d *bib.Dataset) []core.EntityID {
	out := make([]core.EntityID, d.NumRefs())
	for i := range out {
		out[i] = core.EntityID(i)
	}
	return out
}

// TestPlainProgramIsExactEngine: a program with only match clauses
// compiles to the engine product itself — the same *rules.Matcher a
// handwritten []rules.Rule slice yields, with candidates untouched.
func TestPlainProgramIsExactEngine(t *testing.T) {
	src := "program paper\nmatch level 3\nmatch level 2 when cooccur >= 1\nmatch level 1 when cooccur >= 2\n"
	pl := mustCompile(t, src)
	if pl.Relevels() || pl.Seeded() {
		t.Fatal("plain program must not relevel or seed")
	}
	d := peopleDataset([][]string{
		{"Vibhor Rastogi", "N. Dalvi"},
		{"Vibhor Rastogi", "N. Dalvi"},
	})
	cands := allPairs(d, similarity.LevelNone)
	for i := range cands {
		p := cands[i].Pair
		cands[i].Level = similarity.StringLevel(d.Refs[p.A].Name, d.Refs[p.B].Name)
	}
	m, err := newMatcher(pl, d, cands)
	if err != nil {
		t.Fatal(err)
	}
	hand, err := rules.New(d, cands, rules.PaperRules())
	if err != nil {
		t.Fatal(err)
	}
	got := m.Match(entities(d), nil, nil)
	want := hand.Match(entities(d), nil, nil)
	if !got.Equal(want) {
		t.Fatalf("compiled %v != handwritten %v", got.Sorted(), want.Sorted())
	}
}

// TestRelevelAndCooccur: level clauses re-discretize candidates from the
// typed fields, and co-occurrence support flows through the group
// relation (household co-members here, coauthors in the paper's domain).
func TestRelevelAndCooccur(t *testing.T) {
	pl := mustCompile(t, peopleSrc)
	d := peopleDataset([][]string{
		{"ann smith | 12 oak st | 94110 | 555-0101", "bob smith | 12 oak st | 94110 | 555-0202"},
		{"Ann Smith | 12 Oak St. | 94110 | 555-0101", "bob smyth | 12 oak st | 94110 | 555-0202"},
	})
	// Deliberately wrong input levels: the program's level clauses govern.
	m, err := newMatcher(pl, d, allPairs(d, similarity.LevelNone))
	if err != nil {
		t.Fatal(err)
	}
	out := m.Match(entities(d), nil, nil)
	ann := core.MakePair(0, 2)
	bob := core.MakePair(1, 3)
	if !out.Has(ann) {
		t.Fatalf("level-3 ann pair missing: %v", out.Sorted())
	}
	if !out.Has(bob) {
		t.Fatalf("level-2 bob pair missing household support: %v", out.Sorted())
	}
	if out.Has(core.MakePair(0, 3)) || out.Has(core.MakePair(1, 2)) {
		t.Fatalf("cross pair matched: %v", out.Sorted())
	}
}

// TestEqualSeed: a hard-equality seed enters V+ on every Match call — the
// pair is reported even when no similarity rule could derive it.
func TestEqualSeed(t *testing.T) {
	pl := mustCompile(t, "program p\nfields name, phone\nlevel 2 when name jaro >= 0.95\nmatch level 2\nequal when phone equal\n")
	d := peopleDataset([][]string{
		{"ann smith | 555-0101"},
		{"zelda quux | 555-0101"},
	})
	m, err := newMatcher(pl, d, allPairs(d, similarity.LevelNone))
	if err != nil {
		t.Fatal(err)
	}
	p := core.MakePair(0, 1)
	out := m.Match(entities(d), nil, nil)
	if !out.Has(p) {
		t.Fatalf("hard-equality seed not applied: %v", out.Sorted())
	}
	// Caller-side negative evidence still wins over the seed.
	if out := m.Match(entities(d), nil, core.NewPairSet(p)); out.Has(p) {
		t.Fatal("caller negative evidence must override the equal seed")
	}
}

// TestDistinctSeed: a hard-inequality seed suppresses a pair every rule
// would otherwise derive.
func TestDistinctSeed(t *testing.T) {
	pl := mustCompile(t, "program p\nfields name, zip\nlevel 3 when name equal\nmatch level 3\ndistinct when zip differ\n")
	d := peopleDataset([][]string{
		{"ann smith | 94110"},
		{"ann smith | 90210"},
		{"ann smith | 94110"},
	})
	m, err := newMatcher(pl, d, allPairs(d, similarity.LevelNone))
	if err != nil {
		t.Fatal(err)
	}
	out := m.Match(entities(d), nil, nil)
	if out.Has(core.MakePair(0, 1)) || out.Has(core.MakePair(1, 2)) {
		t.Fatalf("distinct seed ignored: %v", out.Sorted())
	}
	if !out.Has(core.MakePair(0, 2)) {
		t.Fatalf("same-zip pair should still fire: %v", out.Sorted())
	}
}

// TestSeededWellBehaved: seeding preserves the engine's monotonicity and
// idempotence (the SMP-equals-FULL prerequisites).
func TestSeededWellBehaved(t *testing.T) {
	pl := mustCompile(t, peopleSrc)
	d := peopleDataset([][]string{
		{"ann smith | 12 oak st | 94110 | 555-0101", "bob smith | 12 oak st | 94110 |"},
		{"Ann Smith | 12 Oak St. | 94110 | 555-0101", "bob smyth | 12 oak st | 94110 |"},
		{"carla jones | 9 elm ave | 90210 | 555-0303"},
	})
	m, err := newMatcher(pl, d, allPairs(d, similarity.LevelNone))
	if err != nil {
		t.Fatal(err)
	}
	es := entities(d)
	base := m.Match(es, nil, nil)
	// Idempotence: feeding the output back as evidence adds nothing new.
	again := m.Match(es, base, nil)
	if !again.Equal(base.Union(base)) && !again.Equal(base) {
		t.Fatalf("not idempotent: %v vs %v", base.Sorted(), again.Sorted())
	}
	// Monotonicity: more evidence never removes derived pairs.
	extra := core.NewPairSet(core.MakePair(1, 3))
	grown := m.Match(es, extra, nil)
	for p := range base.All() {
		if !grown.Has(p) {
			t.Fatalf("evidence removed pair %v", p)
		}
	}
}

// holdsRaw evaluates a conjunction the way the plan did before records were
// normalized once: every predicate through the exported Field* kernel, which
// normalizes both raw payloads on each call.
func holdsRaw(cond []test, fa, fb []string) bool {
	for _, t := range cond {
		a, b := fieldVal(fa, t.field), fieldVal(fb, t.field)
		var ok bool
		switch t.op {
		case OpEqual:
			ok = similarity.FieldEqual(a, b)
		case OpDiffer:
			ok = similarity.FieldDiffer(a, b)
		case OpJaro:
			ok = similarity.FieldJaro(a, b) >= t.num
		case OpQGram:
			ok = similarity.FieldQGram(a, b) >= t.num
		case OpLev:
			ok = similarity.FieldLev(a, b) <= int(t.num)
		case OpAbsDiff:
			d, parsed := similarity.AbsDiff(a, b)
			ok = parsed && d <= t.num
		}
		if !ok {
			return false
		}
	}
	return true
}

// TestGroundMatchesPerCallNormalization: grounding from records normalized
// once assigns every candidate of the people corpus the level and seed that
// per-call normalization of the raw fields does, and the level LevelOf gives
// for the two raw keys. Two programs: the benchmark's, and one naming every
// operator (so absdiff's raw payload and a field no predicate normalizes are
// both on the path).
func TestGroundMatchesPerCallNormalization(t *testing.T) {
	d, err := bib.DatasetFromRecords("people-like", datagen.MustGeneratePeople(datagen.PeopleLike(0.25, 42)))
	if err != nil {
		t.Fatal(err)
	}
	// Mixed case and punctuation, which the generator never emits.
	d.Refs[0].Name = strings.ToUpper(d.Refs[0].Name)
	d.Refs[1].Name = strings.ReplaceAll(d.Refs[1].Name, " ", ". ")
	d.InvalidateCoauthor()
	sp := canopy.CandidatePairs(d, canopy.BuildCover(d, canopy.DefaultConfig()))
	table, sp, err := core.TableOf(d.NumRefs(), sp, func(c canopy.SimilarPair) core.Pair { return c.Pair })
	if err != nil {
		t.Fatal(err)
	}
	benchmark, err := os.ReadFile("../../../testdata/rules/people.rules")
	if err != nil {
		t.Fatal(err)
	}
	everyOp := "program every-op\nfields name, street, phone, zip\n" +
		"level 3 when phone equal and name lev <= 2\n" +
		"level 2 when name jaro >= 0.85 and zip absdiff <= 1\n" +
		"level 1 when name qgram >= 0.5\n" +
		"match level 3\nmatch level 2\nmatch level 1 when cooccur >= 1\n" +
		"equal when phone equal and zip absdiff <= 0\ndistinct when phone differ and name differ\n"
	for _, src := range []string{string(benchmark), everyOp} {
		pl := mustCompile(t, src)
		levels := map[similarity.Level]int{}
		seeds := map[rules.Seed]int{}
		groundLevels, groundSeeds := pl.ground(d, table, canopy.Levels(sp))
		for i, c := range sp {
			g := rules.Candidate{Pair: c.Pair, Level: groundLevels[i], Seed: groundSeeds[i]}
			keyA, keyB := d.Refs[g.Pair.A].Name, d.Refs[g.Pair.B].Name
			fa, fb := similarity.SplitFields(keyA), similarity.SplitFields(keyB)
			wantLevel := similarity.LevelNone
			for _, lp := range pl.levels {
				if holdsRaw(lp.cond, fa, fb) {
					wantLevel = lp.level
					break
				}
			}
			var wantSeed rules.Seed
			for _, sp := range pl.seeds {
				if holdsRaw(sp.cond, fa, fb) {
					wantSeed |= sp.seed
				}
			}
			if g.Level != wantLevel || g.Seed != wantSeed {
				t.Fatalf("%s: %q / %q ground to level %d seed %d, per-call normalization gives level %d seed %d",
					pl.Prog.Name, keyA, keyB, g.Level, g.Seed, wantLevel, wantSeed)
			}
			if got := pl.LevelOf(keyA, keyB); got != g.Level {
				t.Fatalf("%s: LevelOf(%q, %q) = %d, ground level %d", pl.Prog.Name, keyA, keyB, got, g.Level)
			}
			levels[g.Level]++
			seeds[g.Seed]++
		}
		if len(levels) < 3 || len(seeds) < 3 {
			t.Errorf("%s: fixture exercises levels %v and seeds %v only", pl.Prog.Name, levels, seeds)
		}
	}
}
