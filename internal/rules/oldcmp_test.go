package rules_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/bib"
	"repro/internal/canopy"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/rules"
	"repro/internal/rules/lang"
	"repro/internal/similarity"
)

// The evaluator this package used before the ground-once engine — the
// per-call clone of the evidence, the N(a) × N(b) grid of hash probes
// with a seen map per candidate, the per-call scope map and sort — and
// the wrapper rules/lang put around it for seed clauses, kept verbatim as
// the test-only oracle for the dense engine.

type oldMatcher struct {
	rules    []rules.Rule
	co       *graph.Graph
	pairs    []core.Pair
	idOf     map[core.Pair]int32
	level    []similarity.Level
	pairsOf  [][]int32
	maxLevel map[similarity.Level][]rules.Rule // rules indexed by level
}

func newOld(d *bib.Dataset, cands []rules.Candidate, rs []rules.Rule) *oldMatcher {
	m := &oldMatcher{
		rules:    rs,
		co:       d.Coauthor(),
		pairs:    make([]core.Pair, len(cands)),
		idOf:     make(map[core.Pair]int32, len(cands)),
		level:    make([]similarity.Level, len(cands)),
		pairsOf:  make([][]int32, d.NumRefs()),
		maxLevel: map[similarity.Level][]rules.Rule{},
	}
	for _, r := range rs {
		m.maxLevel[r.Level] = append(m.maxLevel[r.Level], r)
	}
	for i, c := range cands {
		m.pairs[i] = c.Pair
		m.idOf[c.Pair] = int32(i)
		m.level[i] = c.Level
		m.pairsOf[c.Pair.A] = append(m.pairsOf[c.Pair.A], int32(i))
		m.pairsOf[c.Pair.B] = append(m.pairsOf[c.Pair.B], int32(i))
	}
	return m
}

func (m *oldMatcher) Candidates(entities []core.EntityID) []core.Pair {
	in := make(map[core.EntityID]bool, len(entities))
	for _, e := range entities {
		in[e] = true
	}
	var out []core.Pair
	for _, e := range entities {
		for _, id := range m.pairsOf[e] {
			p := m.pairs[id]
			if p.A == e && in[p.B] {
				out = append(out, p)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// matchedCoauthorPairs counts distinct coauthor-pair support for p given
// the current equals set: unordered pairs (c1, c2) with c1 ∈ N(p.A),
// c2 ∈ N(p.B), and either c1 == c2 (reflexivity) or (c1, c2) ∈ equals.
// Counting stops at enough, keeping rule checks cheap.
func (m *oldMatcher) matchedCoauthorPairs(p core.Pair, equals core.PairSet, enough int) int {
	if enough == 0 {
		return 0
	}
	seen := map[core.Pair]bool{}
	count := 0
	for _, c1 := range m.co.Neighbors(p.A) {
		for _, c2 := range m.co.Neighbors(p.B) {
			var q core.Pair
			if c1 == c2 {
				q = core.Pair{A: c1, B: c1} // reflexive marker
			} else {
				q = core.MakePair(c1, c2)
				if !equals.Has(q) {
					continue
				}
			}
			if !seen[q] {
				seen[q] = true
				count++
				if count >= enough {
					return count
				}
			}
		}
	}
	return count
}

// fires reports whether any rule derives p under equals.
func (m *oldMatcher) fires(id int32, equals core.PairSet) bool {
	rules := m.maxLevel[m.level[id]]
	if len(rules) == 0 {
		return false
	}
	need := -1
	for _, r := range rules {
		if need < 0 || r.MinCoauthorMatches < need {
			need = r.MinCoauthorMatches
		}
	}
	if need == 0 {
		return true
	}
	return m.matchedCoauthorPairs(m.pairs[id], equals, need) >= need
}

func (m *oldMatcher) Match(entities []core.EntityID, pos, neg core.PairSet) core.PairSet {
	in := make(map[core.EntityID]int32, len(entities))
	for i, e := range entities {
		in[e] = int32(i)
	}
	var scoped []int32
	for _, e := range entities {
		for _, id := range m.pairsOf[e] {
			p := m.pairs[id]
			if p.A == e {
				if _, ok := in[p.B]; ok {
					scoped = append(scoped, id)
				}
			}
		}
	}
	sort.Slice(scoped, func(a, b int) bool { return scoped[a] < scoped[b] })

	// equals holds the global view: all positive evidence plus everything
	// derived so far. out holds the in-scope portion.
	equals := pos.Clone()
	out := core.NewPairSet()
	for p := range pos.All() {
		if neg.Has(p) {
			continue
		}
		_, okA := in[p.A]
		_, okB := in[p.B]
		if okA && okB {
			out.Add(p)
		}
	}

	for {
		changed := false
		for _, id := range scoped {
			p := m.pairs[id]
			if equals.Has(p) || neg.Has(p) {
				continue
			}
			if m.fires(id, equals) {
				equals.Add(p)
				out.Add(p)
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return out
}

// oldSeeded wraps the old engine with a program's hard evidence: each
// Match call sees the union of the caller's evidence and the seeds.
type oldSeeded struct {
	inner    *oldMatcher
	pos, neg core.PairSet
}

func (s *oldSeeded) Candidates(entities []core.EntityID) []core.Pair {
	return s.inner.Candidates(entities)
}

func (s *oldSeeded) Match(entities []core.EntityID, pos, neg core.PairSet) core.PairSet {
	return s.inner.Match(entities, pos.Union(s.pos), neg.Union(s.neg))
}

// oldPlan is the old grounding of a compiled program, over the parsed
// AST: predicates in source order, fields looked up by name.
type oldPlan struct {
	prog       *lang.Program
	fieldIdx   map[string]int
	byStrength []lang.LevelClause
}

func newOldPlan(p *lang.Program) *oldPlan {
	pl := &oldPlan{prog: p, fieldIdx: map[string]int{}}
	for i, f := range p.Fields {
		pl.fieldIdx[f.Name] = i
	}
	pl.byStrength = append([]lang.LevelClause(nil), p.Levels...)
	sort.Slice(pl.byStrength, func(i, j int) bool {
		return pl.byStrength[i].Level > pl.byStrength[j].Level
	})
	return pl
}

func (pl *oldPlan) fieldVal(fields []string, name string) string {
	idx := pl.fieldIdx[name]
	if idx >= len(fields) {
		return ""
	}
	return fields[idx]
}

func evalPredOld(pr lang.Pred, a, b string) bool {
	switch pr.Op {
	case lang.OpEqual:
		return similarity.FieldEqual(a, b)
	case lang.OpDiffer:
		return similarity.FieldDiffer(a, b)
	case lang.OpJaro:
		return similarity.FieldJaro(a, b) >= pr.Num
	case lang.OpQGram:
		return similarity.FieldQGram(a, b) >= pr.Num
	case lang.OpLev:
		return similarity.FieldLev(a, b) <= int(pr.Num)
	case lang.OpAbsDiff:
		d, ok := similarity.AbsDiff(a, b)
		return ok && d <= pr.Num
	}
	return false
}

func (pl *oldPlan) holds(cond []lang.Pred, fa, fb []string) bool {
	for _, pr := range cond {
		if !evalPredOld(pr, pl.fieldVal(fa, pr.Field), pl.fieldVal(fb, pr.Field)) {
			return false
		}
	}
	return true
}

func (pl *oldPlan) levelOfFields(fa, fb []string) similarity.Level {
	for _, lc := range pl.byStrength {
		if pl.holds(lc.Cond, fa, fb) {
			return similarity.Level(lc.Level)
		}
	}
	return similarity.LevelNone
}

func (pl *oldPlan) newMatcher(d *bib.Dataset, cands []rules.Candidate, rs []rules.Rule) core.Matcher {
	fieldCache := make(map[core.EntityID][]string)
	fieldsOf := func(e core.EntityID) []string {
		if fs, ok := fieldCache[e]; ok {
			return fs
		}
		var fs []string
		if e >= 0 && int(e) < len(d.Refs) {
			fs = similarity.SplitFields(d.Refs[e].Name)
		}
		fieldCache[e] = fs
		return fs
	}

	work := cands
	if len(pl.byStrength) > 0 {
		work = make([]rules.Candidate, len(cands))
		for i, c := range cands {
			work[i] = rules.Candidate{
				Pair:  c.Pair,
				Level: pl.levelOfFields(fieldsOf(c.Pair.A), fieldsOf(c.Pair.B)),
			}
		}
	}
	inner := newOld(d, work, rs)
	if len(pl.prog.Seeds) == 0 {
		return inner
	}
	pos, neg := core.NewPairSet(), core.NewPairSet()
	for _, c := range work {
		fa, fb := fieldsOf(c.Pair.A), fieldsOf(c.Pair.B)
		for _, sc := range pl.prog.Seeds {
			if pl.holds(sc.Cond, fa, fb) {
				if sc.Negated {
					neg.Add(c.Pair)
				} else {
					pos.Add(c.Pair)
				}
			}
		}
	}
	return &oldSeeded{inner: inner, pos: pos, neg: neg}
}

// --- fixtures -----------------------------------------------------------

// program is one rules program of the differential matrix, ground both
// ways over the same candidates.
type program struct {
	name string
	src  string // empty: the handwritten rules.PaperRules()
}

func programs(t testing.TB) []program {
	t.Helper()
	ps := []program{{name: "PaperRules"}}
	for _, f := range []string{"paper", "lenient", "strict", "people"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "rules", f+".rules"))
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, program{name: f + ".rules", src: string(src)})
	}
	return ps
}

// ground builds the dense matcher and its oracle for one program.
func (p program) ground(t testing.TB, d *bib.Dataset, cands []rules.Candidate) (*rules.Matcher, core.Matcher) {
	t.Helper()
	if p.src == "" {
		m, err := rules.New(d, cands, rules.PaperRules())
		if err != nil {
			t.Fatal(err)
		}
		return m, newOld(d, cands, rules.PaperRules())
	}
	pl, err := lang.CompileSource(p.src)
	if err != nil {
		t.Fatal(err)
	}
	table, inOrder, err := core.TableOf(d.NumRefs(), cands, func(c rules.Candidate) core.Pair { return c.Pair })
	if err != nil {
		t.Fatal(err)
	}
	levels := make([]similarity.Level, len(inOrder))
	for i, c := range inOrder {
		levels[i] = c.Level
	}
	m, err := pl.NewMatcher(d, table, levels)
	if err != nil {
		t.Fatal(err)
	}
	return m, newOldPlan(pl.Prog).newMatcher(d, cands, pl.Rules)
}

// corpus is one dataset with its cover and blocking candidates.
type corpus struct {
	name  string
	d     *bib.Dataset
	cover *core.Cover
	cands []rules.Candidate
}

func newCorpus(t testing.TB, kind string, scale float64, seed int64) corpus {
	t.Helper()
	var d *bib.Dataset
	switch kind {
	case "hepth":
		d = datagen.MustGenerate(datagen.HEPTHLike(scale, seed))
	case "dblp":
		d = datagen.MustGenerate(datagen.DBLPLike(scale, seed))
	case "people":
		var err error
		if d, err = bib.DatasetFromRecords("people", datagen.MustGeneratePeople(datagen.PeopleLike(scale, seed))); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unknown corpus kind %q", kind)
	}
	cover := canopy.BuildCover(d, canopy.DefaultConfig())
	sp := canopy.CandidatePairs(d, cover)
	cands := make([]rules.Candidate, len(sp))
	for i, s := range sp {
		cands[i] = rules.Candidate{Pair: s.Pair, Level: s.Level}
	}
	return corpus{fmt.Sprintf("%s/seed=%d", kind, seed), d, cover, cands}
}

func (c corpus) allEntities() []core.EntityID {
	out := make([]core.EntityID, c.d.NumRefs())
	for i := range out {
		out[i] = core.EntityID(i)
	}
	return out
}

// sample draws each candidate pair with probability frac.
func sample(rng *rand.Rand, cands []rules.Candidate, frac float64) core.PairSet {
	s := core.NewPairSet()
	for _, c := range cands {
		if rng.Float64() < frac {
			s.Add(c.Pair)
		}
	}
	return s
}

type evidence struct {
	name     string
	pos, neg core.PairSet
}

// evidenceCases are the evidence shapes of the matrix, all drawn from the
// candidates (the evidence contract): none, sparse and dense positive,
// negative, and an overlap of the two.
func evidenceCases(rng *rand.Rand, cands []rules.Candidate) []evidence {
	pos10, pos50, neg := sample(rng, cands, 0.1), sample(rng, cands, 0.5), sample(rng, cands, 0.1)
	return []evidence{
		{"empty", nil, nil},
		{"pos10", pos10, nil},
		{"pos50", pos50, core.NewPairSet()},
		{"neg", pos10, neg.Minus(pos10)},
		{"overlap", pos50, neg.Union(pos50.Intersect(sample(rng, cands, 0.2)))},
	}
}

// compare holds one Match and Candidates call of the dense matcher to
// the oracle's, then feeds the output back as evidence and compares
// again.
func compare(t *testing.T, m *rules.Matcher, old core.Matcher, entities []core.EntityID, ev evidence, where string) {
	t.Helper()
	got, want := m.Match(entities, ev.pos, ev.neg), old.Match(entities, ev.pos, ev.neg)
	if !got.Equal(want) {
		t.Fatalf("%s, evidence %s: dense Match has extra %v, misses %v", where, ev.name,
			got.Minus(want).Sorted(), want.Minus(got).Sorted())
	}
	if gc, wc := m.Candidates(entities), old.Candidates(entities); !slices.Equal(gc, wc) {
		t.Fatalf("%s: dense Candidates %v, old %v", where, gc, wc)
	}
	fed := ev.pos.Union(got)
	if got, want := m.Match(entities, fed, ev.neg), old.Match(entities, fed, ev.neg); !got.Equal(want) {
		t.Fatalf("%s, evidence %s fed back: dense Match has extra %v, misses %v", where, ev.name,
			got.Minus(want).Sorted(), want.Minus(got).Sorted())
	}
}

// otherSlices are entity slices no cover holds: the whole entity set, a
// random subset, a neighborhood reversed (same members, other identity
// and order), and the empty slice.
func otherSlices(rng *rand.Rand, c corpus) [][]core.EntityID {
	all := c.allEntities()
	var sub []core.EntityID
	for _, e := range all {
		if rng.Float64() < 0.4 {
			sub = append(sub, e)
		}
	}
	big := c.cover.Sets[0]
	for _, set := range c.cover.Sets {
		if len(set) > len(big) {
			big = set
		}
	}
	rev := slices.Clone(big)
	slices.Reverse(rev)
	return [][]core.EntityID{all, sub, rev, nil}
}

// TestDenseMatchesOldMatcher is the differential matrix: corpora × seeds
// × programs × (prepared neighborhoods | the same unprepared | slices
// outside any cover) × evidence shapes.
func TestDenseMatchesOldMatcher(t *testing.T) {
	scales := map[string]float64{"hepth": 0.08, "dblp": 0.08, "people": 0.15}
	seeds := []int64{1, 42, 1337}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, kind := range []string{"hepth", "dblp", "people"} {
		for _, seed := range seeds {
			c := newCorpus(t, kind, scales[kind], seed)
			for _, p := range programs(t) {
				t.Run(c.name+"/"+p.name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					m, old := p.ground(t, c.d, c.cands)
					cases := evidenceCases(rng, c.cands)
					for _, ev := range cases {
						for _, es := range otherSlices(rng, c) {
							compare(t, m, old, es, ev, fmt.Sprintf("unprepared slice of %d", len(es)))
						}
					}
					for i, set := range c.cover.Sets {
						compare(t, m, old, set, cases[i%len(cases)], fmt.Sprintf("unprepared neighborhood %d", i))
					}
					m.PrepareCover(c.cover)
					for _, ev := range cases {
						for i, set := range c.cover.Sets {
							compare(t, m, old, set, ev, fmt.Sprintf("prepared neighborhood %d", i))
						}
						for _, es := range otherSlices(rng, c) {
							compare(t, m, old, es, ev, fmt.Sprintf("slice of %d beside a prepared cover", len(es)))
						}
					}
				})
			}
		}
	}
}

// supportDataset is the hand-made fixture of the distinct-support rule.
// References 0..3 share paper 0, so the weak candidate (0, 1) has the
// coauthors 2 and 3 on both sides: each is one reflexive support, and
// the pair {2, 3} is reachable as (c1, c2) and as (c2, c1) but is one
// support. The weak candidate (4, 7) has no shared coauthor and up to
// four evidence-dependent supports {5,8}, {5,9}, {6,8}, {6,9}.
func supportDataset() (*bib.Dataset, []rules.Candidate) {
	d := &bib.Dataset{Name: "support"}
	for p, size := range []int{4, 3, 3} {
		paper := bib.Paper{Title: "t", Year: 2000}
		for i := 0; i < size; i++ {
			id := bib.RefID(len(d.Refs))
			d.Refs = append(d.Refs, bib.Reference{Name: fmt.Sprintf("n%d", id), Paper: bib.PaperID(p), True: bib.AuthorID(id)})
			paper.Refs = append(paper.Refs, id)
		}
		d.Papers = append(d.Papers, paper)
	}
	weak, none := similarity.LevelWeak, similarity.LevelNone
	return d, []rules.Candidate{
		{Pair: core.MakePair(0, 1), Level: weak},
		{Pair: core.MakePair(2, 3), Level: none},
		{Pair: core.MakePair(4, 7), Level: weak},
		{Pair: core.MakePair(5, 8), Level: none},
		{Pair: core.MakePair(5, 9), Level: none},
		{Pair: core.MakePair(6, 8), Level: none},
		{Pair: core.MakePair(6, 9), Level: none},
	}
}

// TestDistinctSupport pins how supports are counted — a shared coauthor
// once, a pair reachable both ways once, stop at k — against the oracle
// on every subset of the candidates as positive evidence, and on the
// counts themselves.
func TestDistinctSupport(t *testing.T) {
	d, cands := supportDataset()
	all := make([]core.EntityID, d.NumRefs())
	for i := range all {
		all[i] = core.EntityID(i)
	}
	shared, far := core.MakePair(0, 1), core.MakePair(4, 7)
	for k := 1; k <= 5; k++ {
		rs := []rules.Rule{{Level: similarity.LevelWeak, MinCoauthorMatches: k}}
		m, err := rules.New(d, cands, rs)
		if err != nil {
			t.Fatal(err)
		}
		old := newOld(d, cands, rs)
		for mask := 0; mask < 1<<len(cands); mask++ {
			pos := core.NewPairSet()
			for i, c := range cands {
				if mask>>i&1 == 1 {
					pos.Add(c.Pair)
				}
			}
			got, want := m.Match(all, pos, nil), old.Match(all, pos, nil)
			if !got.Equal(want) {
				t.Fatalf("k=%d evidence %v: dense %v, old %v", k, pos.Sorted(), got.Sorted(), want.Sorted())
			}
			// (0,1): two reflexive supports plus {2,3} when it is equals.
			have := 2
			if pos.Has(core.MakePair(2, 3)) {
				have++
			}
			if fired := got.Has(shared); fired != (have >= k || pos.Has(shared)) {
				t.Fatalf("k=%d evidence %v: (0,1) has %d supports, fired=%v", k, pos.Sorted(), have, fired)
			}
			// (4,7): one support per matched cross pair.
			have = 0
			for _, c := range cands[3:] {
				if pos.Has(c.Pair) {
					have++
				}
			}
			if fired := got.Has(far); fired != (have >= k || pos.Has(far)) {
				t.Fatalf("k=%d evidence %v: (4,7) has %d supports, fired=%v", k, pos.Sorted(), have, fired)
			}
		}
	}
}

// TestDenseWellBehaved runs the Definition 2/3 checkers on the dense
// engine under a seeded program (the plain program is covered by
// TestWellBehavedGenerated).
func TestDenseWellBehaved(t *testing.T) {
	c := newCorpus(t, "people", 0.15, 5)
	ps := programs(t)
	m, _ := ps[len(ps)-1].ground(t, c.d, c.cands)
	m.PrepareCover(c.cover)
	rng := rand.New(rand.NewSource(9))
	all := c.allEntities()
	scopes := append([][]core.EntityID{all}, c.cover.Sets[:min(8, len(c.cover.Sets))]...)
	for trial := 0; trial < 4; trial++ {
		pos := sample(rng, c.cands, 0.05)
		neg := sample(rng, c.cands, 0.05).Minus(pos)
		posBig := pos.Union(sample(rng, c.cands, 0.05)).Minus(neg)
		negBig := neg.Union(sample(rng, c.cands, 0.05)).Minus(pos)
		for _, es := range scopes {
			if err := core.CheckIdempotence(m, es, pos, neg); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if err := core.CheckMonotoneEntities(m, es, all, pos, neg); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if err := core.CheckMonotonePositive(m, es, pos.Minus(neg), posBig, neg); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if err := core.CheckMonotoneNegative(m, es, pos, neg.Intersect(negBig), negBig); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	}
}

// TestPrepareCoverConcurrentWithMatch swaps two covers' preparations in
// and out while Match and Candidates run on neighborhoods of both (run
// under -race): every call must see a consistent skeleton, prepared or
// ephemeral.
func TestPrepareCoverConcurrentWithMatch(t *testing.T) {
	c := newCorpus(t, "people", 0.15, 3)
	ps := programs(t)
	m, old := ps[len(ps)-1].ground(t, c.d, c.cands)
	// A second cover over the same entities: the same neighborhoods in
	// fresh slices, so neither preparation answers for the other.
	other := &core.Cover{NumEntities: c.cover.NumEntities}
	for _, set := range c.cover.Sets {
		other.Sets = append(other.Sets, slices.Clone(set))
	}
	pos := sample(rand.New(rand.NewSource(1)), c.cands, 0.2)
	want := make([]core.PairSet, len(c.cover.Sets))
	for i, set := range c.cover.Sets {
		want[i] = old.Match(set, pos, nil)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				cover := c.cover
				if (w+round)%2 == 1 {
					cover = other
				}
				if w < 2 {
					m.PrepareCover(cover)
					continue
				}
				for i, set := range cover.Sets {
					if got := m.Match(set, pos, nil); !got.Equal(want[i]) {
						t.Errorf("neighborhood %d: Match differs from the oracle during a cover swap", i)
						return
					}
					m.Candidates(set)
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzDenseMatchesOld draws the evidence bitmaps, the scope and the
// program from the fuzz input and holds the dense engine to the oracle.
func FuzzDenseMatchesOld(f *testing.F) {
	c := newCorpus(f, "people", 0.1, 7)
	ps := programs(f)
	type pair struct {
		m   *rules.Matcher
		old core.Matcher
	}
	ground := make([]pair, len(ps))
	for i, p := range ps {
		ground[i].m, ground[i].old = p.ground(f, c.d, c.cands)
		if i%2 == 0 {
			ground[i].m.PrepareCover(c.cover)
		}
	}
	f.Add(uint8(0), uint16(0), []byte{}, []byte{})
	f.Add(uint8(4), uint16(3), []byte{0xff, 0x0f, 0xa5}, []byte{0x01})
	f.Add(uint8(9), uint16(65535), []byte{0xaa, 0x55, 0xaa, 0x55, 0xff}, []byte{0xaa, 0xff})
	f.Fuzz(func(t *testing.T, prog uint8, scope uint16, posBits, negBits []byte) {
		g := ground[int(prog)%len(ground)]
		// Bit i of a bitmap selects candidate i; the bitmap repeats over
		// the candidates.
		draw := func(bits []byte) core.PairSet {
			s := core.NewPairSet()
			if len(bits) == 0 {
				return s
			}
			for i, cand := range c.cands {
				if bits[i/8%len(bits)]>>(i%8)&1 == 1 {
					s.Add(cand.Pair)
				}
			}
			return s
		}
		entities := c.allEntities()
		if int(scope) < len(c.cover.Sets) {
			entities = c.cover.Sets[scope]
		} else if scope%2 == 1 {
			entities = entities[:int(scope)%len(entities)]
		}
		pos, neg := draw(posBits), draw(negBits)
		got, want := g.m.Match(entities, pos, neg), g.old.Match(entities, pos, neg)
		if !got.Equal(want) {
			t.Fatalf("dense Match has extra %v, misses %v", got.Minus(want).Sorted(), want.Minus(got).Sorted())
		}
	})
}
