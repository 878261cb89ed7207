package canopy

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/bib"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/similarity"
)

// The scorer this package used before the gram table — string-keyed gram
// maps, string-keyed postings and one map Jaccard per candidate — kept as
// the test-only oracle for the counting probe.

// jaccardOld computes set Jaccard over two gram maps.
func jaccardOld(a, b map[string]int) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	if len(b) < len(a) {
		a, b = b, a
	}
	inter := 0
	for g := range a {
		if _, ok := b[g]; ok {
			inter++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// normalize renders a reference name into canonical "first last" form so
// that punctuation and case do not affect gram overlap.
func normalize(name string) string {
	return similarity.ParseName(name).String()
}

// scoresOld returns every record's loose candidates, ascending by id,
// with their similarities.
func scoresOld(names []string, cfg Config) [][]scored {
	n := len(names)
	grams := make([]map[string]int, n)
	for i, name := range names {
		grams[i] = similarity.QGrams(normalize(name), cfg.Q)
	}
	index := map[string][]int32{}
	for i := 0; i < n; i++ {
		for g := range grams[i] {
			index[g] = append(index[g], int32(i))
		}
	}
	seen := make([]int32, n)
	for i := range seen {
		seen[i] = -1
	}
	out := make([][]scored, n)
	for seed := 0; seed < n; seed++ {
		stamp := int32(seed)
		for g := range grams[seed] {
			for _, j := range index[g] {
				if seen[j] == stamp {
					continue
				}
				seen[j] = stamp
				if s := jaccardOld(grams[seed], grams[j]); s >= cfg.Loose {
					out[seed] = append(out[seed], scored{ID: j, Sim: s})
				}
			}
		}
		sort.Slice(out[seed], func(a, b int) bool { return out[seed][a].ID < out[seed][b].ID })
	}
	return out
}

// canopiesOld is the serial Canopies algorithm over scoresOld: every
// in-pool seed, in ascending order, emits its loose candidates — cut to
// the seed plus the MaxNeighborhood-1 most similar when the cap is set —
// and removes the tightly similar ones it kept from the pool.
func canopiesOld(names []string, cfg Config) [][]core.EntityID {
	scores := scoresOld(names, cfg)
	inPool := make([]bool, len(names))
	for i := range inPool {
		inPool[i] = true
	}
	var canopies [][]core.EntityID
	for seed := range names {
		if !inPool[seed] {
			continue
		}
		kept := append([]scored(nil), scores[seed]...)
		if k := cfg.MaxNeighborhood; k > 0 && len(kept) > k {
			rank := func(c scored) float64 {
				if int(c.ID) == seed {
					return 2 // above every similarity
				}
				return c.Sim
			}
			sort.SliceStable(kept, func(a, b int) bool { return rank(kept[a]) > rank(kept[b]) })
			kept = kept[:k]
			sort.Slice(kept, func(a, b int) bool { return kept[a].ID < kept[b].ID })
		}
		canopy := []core.EntityID{}
		for _, c := range kept {
			canopy = append(canopy, c.ID)
			if c.Sim >= cfg.Tight {
				inPool[c.ID] = false
			}
		}
		inPool[seed] = false
		if len(canopy) == 0 {
			canopy = []core.EntityID{core.EntityID(seed)}
		}
		canopies = append(canopies, canopy)
	}
	return canopies
}

// The scans this package used before the name table — every reference pair
// of every neighborhood, one NameLevel per distinct reference pair, a PairSet
// of pairs seen, map membership per set — kept as the test-only oracle for
// the class-pair walk and the stamp arrays.

// candidatePairsOld is CandidatePairs by all-pairs scan.
func candidatePairsOld(d *bib.Dataset, cover *core.Cover) []SimilarPair {
	parsed := make([]similarity.Name, d.NumRefs())
	for i := range d.Refs {
		parsed[i] = similarity.ParseName(d.Refs[i].Name)
	}
	seen := core.NewPairSet()
	var out []SimilarPair
	for _, set := range cover.Sets {
		for i := 0; i < len(set); i++ {
			for j := i + 1; j < len(set); j++ {
				p := core.MakePair(set[i], set[j])
				if seen.Has(p) {
					continue
				}
				seen.Add(p)
				if lvl := similarity.NameLevel(parsed[p.A], parsed[p.B]); lvl > similarity.LevelNone {
					out = append(out, SimilarPair{Pair: p, Level: lvl})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pair.A != out[j].Pair.A {
			return out[i].Pair.A < out[j].Pair.A
		}
		return out[i].Pair.B < out[j].Pair.B
	})
	return out
}

// expandBoundaryOld is ExpandBoundary with a membership map per set.
func expandBoundaryOld(sets [][]core.EntityID, rel *graph.Graph) [][]core.EntityID {
	out := make([][]core.EntityID, len(sets))
	for i, set := range sets {
		member := map[core.EntityID]bool{}
		for _, e := range set {
			member[e] = true
		}
		expanded := append([]core.EntityID(nil), set...)
		for _, e := range set {
			for _, u := range rel.Neighbors(e) {
				if !member[u] {
					member[u] = true
					expanded = append(expanded, u)
				}
			}
		}
		sort.Slice(expanded, func(a, b int) bool { return expanded[a] < expanded[b] })
		out[i] = expanded
	}
	return out
}

// greedyTotalCoverOld is GreedyTotalCover with a membership map per set.
func greedyTotalCoverOld(sets [][]core.EntityID, rel *graph.Graph) [][]core.EntityID {
	n := rel.N()
	for _, set := range sets {
		for _, e := range set {
			if int(e) >= n {
				n = int(e) + 1
			}
		}
	}
	out := make([][]core.EntityID, len(sets))
	member := make([]map[core.EntityID]bool, len(sets))
	containing := make([][]int32, n)
	for i, set := range sets {
		out[i] = append([]core.EntityID(nil), set...)
		member[i] = make(map[core.EntityID]bool, len(set))
		for _, e := range set {
			member[i][e] = true
			containing[e] = append(containing[e], int32(i))
		}
	}
	share := func(u, v core.EntityID) bool {
		cu, cv := containing[u], containing[v]
		if len(cv) < len(cu) {
			cu, u, v = cv, v, u
		}
		for _, s := range cu {
			if member[s][v] {
				return true
			}
		}
		return false
	}
	lowestWith := func(e core.EntityID) int32 {
		best := int32(-1)
		for _, s := range containing[e] {
			if best < 0 || s < best {
				best = s
			}
		}
		return best
	}
	add := func(s int32, e core.EntityID) {
		out[s] = append(out[s], e)
		member[s][e] = true
		containing[e] = append(containing[e], s)
	}
	for u := int32(0); u < int32(rel.N()); u++ {
		for _, v := range rel.Neighbors(u) {
			if v <= u || share(u, v) {
				continue
			}
			su, sv := lowestWith(u), lowestWith(v)
			switch {
			case su < 0 && sv < 0:
			case sv < 0 || (su >= 0 && su <= sv):
				add(su, v)
			default:
				add(sv, u)
			}
		}
	}
	for i := range out {
		sort.Slice(out[i], func(a, b int) bool { return out[i][a] < out[i][b] })
	}
	return out
}

// alignedExpandIntoOld is alignedExpandInto over every reference pair of
// every pair set, with the level cached per reference pair.
func alignedExpandIntoOld(d *bib.Dataset, pairSets, sets [][]core.EntityID, maxAligned int) [][]core.EntityID {
	if maxAligned <= 0 {
		return sets
	}
	rel := d.Coauthor()
	parsed := make([]similarity.Name, d.NumRefs())
	for i := range d.Refs {
		parsed[i] = similarity.ParseName(d.Refs[i].Name)
	}
	levels := map[core.PairKey]similarity.Level{}
	lvl := func(x, y core.EntityID) similarity.Level {
		k := core.MakePair(x, y).Key()
		if v, ok := levels[k]; ok {
			return v
		}
		v := similarity.NameLevel(parsed[x], parsed[y])
		levels[k] = v
		return v
	}
	out := make([][]core.EntityID, len(sets))
	var combos []alignedPair
	for si, set := range sets {
		member := make(map[core.EntityID]bool, len(set))
		expanded := append([]core.EntityID(nil), set...)
		for _, e := range set {
			member[e] = true
		}
		add := func(e core.EntityID) {
			if !member[e] {
				member[e] = true
				expanded = append(expanded, e)
			}
		}
		pairSet := pairSets[si]
		for i := 0; i < len(pairSet); i++ {
			for j := i + 1; j < len(pairSet); j++ {
				a, b := pairSet[i], pairSet[j]
				if lvl(a, b) == similarity.LevelNone {
					continue
				}
				combos = combos[:0]
				for _, c1 := range rel.Neighbors(a) {
					for _, c2 := range rel.Neighbors(b) {
						if c1 != c2 {
							combos = append(combos, alignedPair{c1: c1, c2: c2})
						}
					}
				}
				slices.SortFunc(combos, alignedPair.compare)
				taken := 0
				for _, q := range combos {
					if taken >= maxAligned {
						break
					}
					if lvl(q.c1, q.c2) == similarity.LevelNone {
						continue
					}
					add(q.c1)
					add(q.c2)
					taken++
				}
			}
		}
		sort.Slice(expanded, func(a, b int) bool { return expanded[a] < expanded[b] })
		out[si] = expanded
	}
	return out
}

// finishCoverOld is the set construction of finishCover over the old scans,
// pruned by brute force.
func finishCoverOld(d *bib.Dataset, cfg Config, canopies [][]core.EntityID) [][]core.EntityID {
	if cfg.FullBoundary {
		return dropSubsumedOld(expandBoundaryOld(canopies, d.Coauthor()))
	}
	return dropSubsumedOld(alignedExpandIntoOld(d, canopies, greedyTotalCoverOld(canopies, d.Coauthor()), cfg.MaxAligned))
}

// dropSubsumedOld is dropSubsumed by brute force: each set is tested against
// every other through a membership map, and dropped when another contains it
// and is larger or, being equal, comes first.
func dropSubsumedOld(sets [][]core.EntityID) [][]core.EntityID {
	member := make([]map[core.EntityID]bool, len(sets))
	for i, set := range sets {
		member[i] = map[core.EntityID]bool{}
		for _, e := range set {
			member[i][e] = true
		}
	}
	within := func(i, j int) bool {
		for e := range member[i] {
			if !member[j][e] {
				return false
			}
		}
		return true
	}
	var out [][]core.EntityID
	for i, set := range sets {
		dropped := false
		for j := range sets {
			if j != i && within(i, j) && (len(member[j]) > len(member[i]) || j < i) {
				dropped = true
				break
			}
		}
		if !dropped {
			out = append(out, set)
		}
	}
	return out
}

// oracleDatasets are the datasets the name table is pinned on: the three
// generated corpora at three seeds and a hand-made list of its edge cases,
// grouped into papers — neighbors in the list are coauthors, so totality
// patching puts the two empty names into one neighborhood.
func oracleDatasets(t *testing.T) []*bib.Dataset {
	t.Helper()
	fromRecords := func(name string, recs []bib.Record) *bib.Dataset {
		d, err := bib.DatasetFromRecords(name, recs)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	var edge []bib.Record
	for i, name := range []string{
		".", ",", // no tokens: the empty Name, whose level with itself is LevelNone
		"Rastogi", "rastogi", "Rastogy", // a single token is a last name
		"V. R.", "V R", "v. r", "K. R.", // initials only
		"Vibhor Rastogi", "Vibhor Rastogi", "vibhor rastogi", "VIBHOR  RASTOGI", "Vibhor, Rastogi", // one Name, repeated and respelled
		"V. Rastogi", "V Rastogi", "V. Rastogy", "K. Rastogi", "Vibhor Rastogy", "Vikram Rastogi",
		"Nilesh Dalvi", "N. Dalvi", "N. Dalvi", "Nilesh Dalvy", "M. Garofalakis", "Minos Garofalakis",
		"John Smith", "Jane Smith", "J. Smith", "Jon Smith",
	} {
		edge = append(edge, bib.Record{Name: name, Group: int32(i / 2 % 5), Gold: -1})
	}
	out := []*bib.Dataset{fromRecords("edge-cases", edge)}
	for _, seed := range []int64{1, 42, 1337} {
		out = append(out,
			datagen.MustGenerate(datagen.HEPTHLike(0.25, seed)),
			datagen.MustGenerate(datagen.DBLPLike(0.25, seed)),
			fromRecords("people-like", datagen.MustGeneratePeople(datagen.PeopleLike(0.25, seed))))
	}
	return out
}

// nameTableMatchesOldScans pins the name table against the all-pairs
// scans: identical cover sets out of finishCover and identical candidate
// lists, pairs and levels, for every cover configuration.
func nameTableMatchesOldScans(t *testing.T) {
	ctx := context.Background()
	for _, d := range oracleDatasets(t) {
		for _, maxNbr := range []int{0, 2, 8} {
			cfg := DefaultConfig()
			cfg.MaxNeighborhood = maxNbr
			canopies := Canopies(refNames(d), cfg)
			for _, shape := range []struct {
				maxAligned   int
				fullBoundary bool
			}{{0, false}, {1, false}, {3, false}, {0, true}} {
				cfg.MaxAligned, cfg.FullBoundary = shape.maxAligned, shape.fullBoundary
				t.Run(fmt.Sprintf("%s/max%d/aligned%d/full=%v", d.Name, maxNbr, cfg.MaxAligned, cfg.FullBoundary), func(t *testing.T) {
					cover, err := finishCover(ctx, d, cfg, canopies)
					if err != nil {
						t.Fatal(err)
					}
					if want := finishCoverOld(d, cfg, canopies); !reflect.DeepEqual(cover.Sets, want) {
						t.Fatal("finishCover sets differ from the old scans")
					}
					got, want := CandidatePairs(d, cover), candidatePairsOld(d, cover)
					if !slices.Equal(got, want) {
						t.Fatalf("CandidatePairs: %d pairs, old scan %d, or a pair or level differs", len(got), len(want))
					}
				})
			}
		}
	}
}

// freshCopy is d as just built: the same references and papers, none of the
// derived state (Coauthor graph, name table) d has cached.
func freshCopy(d *bib.Dataset) *bib.Dataset {
	return &bib.Dataset{Name: d.Name, Refs: slices.Clone(d.Refs), Papers: slices.Clone(d.Papers)}
}

// checkWarmAndColdTables: BuildCover then CandidatePairs give the old scans'
// cover and candidate list — order and levels included — both ways the
// dataset's name table can meet them: warm, the two calls sharing ONE
// dataset, so the second is served the pairs the first scored; and cold,
// each call on its own freshly built equal dataset, scoring from nothing.
func checkWarmAndColdTables(t *testing.T, d *bib.Dataset, cfg Config) {
	t.Helper()
	wantSets := finishCoverOld(d, cfg, canopiesOld(refNames(d), cfg))
	want := candidatePairsOld(d, core.NewCover(d.NumRefs(), wantSets))

	warm := freshCopy(d)
	cover := BuildCover(warm, cfg)
	if !reflect.DeepEqual(cover.Sets, wantSets) {
		t.Fatal("BuildCover sets differ from the old scans")
	}
	if got := CandidatePairs(warm, cover); !slices.Equal(got, want) {
		t.Fatalf("warm table: %d candidates, old scan %d, or a pair or level differs", len(got), len(want))
	}
	scored := warm.Names().Scored()
	if got := CandidatePairs(warm, cover); !slices.Equal(got, want) || warm.Names().Scored() != scored {
		t.Fatalf("asked again, the warm table gave %d candidates (old scan %d) and scored %d more pairs",
			len(got), len(want), warm.Names().Scored()-scored)
	}

	coldCover := BuildCover(freshCopy(d), cfg)
	if !reflect.DeepEqual(coldCover.Sets, wantSets) {
		t.Fatal("BuildCover sets on a second fresh dataset differ from the old scans")
	}
	if got := CandidatePairs(freshCopy(d), coldCover); !slices.Equal(got, want) {
		t.Fatalf("cold table: %d candidates, old scan %d, or a pair or level differs", len(got), len(want))
	}
}

// oracleCorpora are the name lists the probe is pinned on: the three
// generated corpora and a hand-made list of the gram table's edge cases.
func oracleCorpora(t *testing.T) map[string][]string {
	t.Helper()
	corpora := map[string][]string{
		"edge-cases": {
			"", "a", "a", "b", "ab", "ab", "abc", // empty, shorter than Q, duplicates
			"John Smith", "John Smith", "Jon Smith", "J. Smith", "john  SMITH",
			"José Álvarez", "Jose Alvarez", "José Álvarez", "Łukasz Żółć", "李 小龍", "李 小龙", "é", "éé",
			"", "...", "-", "x y", "y x", "aaaa aaaa", "aaaaaaaa",
		},
	}
	for _, preset := range []datagen.Config{datagen.HEPTHLike(0.25, 42), datagen.DBLPLike(0.25, 42)} {
		d := datagen.MustGenerate(preset)
		for i := range d.Refs {
			corpora[preset.Name] = append(corpora[preset.Name], d.Refs[i].Name)
		}
	}
	for _, r := range datagen.MustGeneratePeople(datagen.PeopleLike(0.25, 42)) {
		corpora["people-like"] = append(corpora["people-like"], r.Name)
	}
	return corpora
}

// duplicatedCorpus is the regime rows exist for, pushed to the extreme: every
// base name appears 1-20 times, respelled so that the copies normalize to
// one string, with typo variants a character away (q-gram similarity around
// 0.9, above most Tights the grid draws) and a few names without grams, all
// shuffled together — so the records of one row are spread over
// the ids, interleaved with those of its near-duplicates, and a
// MaxNeighborhood cap cuts through the middle of rows.
func duplicatedCorpus(rng *rand.Rand, bases int) []string {
	respell := []func(string) string{
		func(s string) string { return s },
		strings.ToUpper,
		func(s string) string { return s + " " },
		func(s string) string { return strings.Replace(s, " ", "  ", 1) },
	}
	var names []string
	for b := 0; b < bases; b++ {
		first := fmt.Sprintf("%c%s", 'a'+rune(rng.Intn(26)), []string{"lexander", "nastasia", "rancisco", "."}[rng.Intn(4)])
		last := fmt.Sprintf("%s%c%s", []string{"Rasto", "Garofala", "Dal", "Smi"}[rng.Intn(4)], 'a'+rune(rng.Intn(26)), []string{"gi", "kis", "vi", "th"}[rng.Intn(4)])
		base := first + " " + last
		for _, name := range []string{base, base + "y", "x" + base} {
			for k := 1 + rng.Intn(20); k > 0; k-- {
				names = append(names, respell[rng.Intn(len(respell))](name))
			}
		}
		if b%4 == 0 {
			names = append(names, []string{".", "-", "..."}[rng.Intn(3)])
		}
	}
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return names
}

// recordScores expands candidate rows to the records in them, ascending by
// id: what the per-record scorer lists for every record of the probed row.
func recordScores(e *emitter, rows []scored) []scored {
	var out []scored
	for _, r := range rows {
		for _, rec := range e.membersOf(r.ID) {
			out = append(out, scored{ID: rec, Sim: r.Sim})
		}
	}
	slices.SortFunc(out, func(a, b scored) int { return int(a.ID) - int(b.ID) })
	return out
}

// checkMatchesOldScorer pins the row scorer against the per-record map scorer
// on one name list and configuration: every record's candidates — its row's,
// expanded — with bit-identical similarities, and identical canopies, from
// the scorer over all names at each shard count, from the batch path at each
// shard count and from the incremental index fed in three chunks.
func checkMatchesOldScorer(t *testing.T, names []string, cfg Config, shardCounts ...int) {
	t.Helper()
	ctx := context.Background()
	wantScores, want := scoresOld(names, cfg), canopiesOld(names, cfg)
	sameAsOld := func(what string, d *bib.Dataset, cands [][]scored) {
		t.Helper()
		e := newEmitter(cfg, d)
		byRow := make([][]scored, len(cands))
		for row := range byRow {
			byRow[row] = recordScores(e, cands[row])
		}
		for i := range names {
			row := d.Names().Class(bib.RefID(i))
			if !sameScores(byRow[row], wantScores[i]) { // == on the float64 similarities, via DeepEqual
				t.Fatalf("%s: candidates of %d %q = %v, old scorer %v", what, i, names[i], byRow[row], wantScores[i])
			}
		}
	}

	for _, shards := range shardCounts {
		scorer, d := newIndex(cfg, shards), namesDataset(names)
		if err := scorer.open(ctx, d); err != nil {
			t.Fatal(err)
		}
		sameAsOld(fmt.Sprintf("scorer shards=%d", shards), d, scorer.cands)

		got, err := CanopiesContext(ctx, names, cfg, shards)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: canopies differ from the old algorithm", shards)
		}
	}

	ix, err := NewIndex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]bib.Record, len(names))
	for i, name := range names {
		if name == "" {
			name = "." // datasets reject "", and both normalize to no grams
		}
		recs[i] = bib.Record{Name: name, Group: -1, Gold: -1}
	}
	var d *bib.Dataset
	for _, hi := range []int{len(recs) / 3, 2 * len(recs) / 3, len(recs)} {
		if hi == 0 {
			continue
		}
		if d, err = bib.DatasetFromRecords("oracle", recs[:hi]); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ix.Add(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	if got := ix.emit(d); !reflect.DeepEqual(got, want) {
		t.Fatal("index canopies differ from the old algorithm")
	}
	sameAsOld("index", d, ix.cands)
}

// TestRefactorMatchesOldAlgorithm pins the row scorer against the map
// scorer (checkMatchesOldScorer) on the oracle corpora and, in its
// "duplicated" subtests, on heavily duplicated ones under random thresholds,
// gram sizes, caps and shard counts. Its "names" subtests pin the name table
// against the all-pairs scans, its "tables" subtests the two ways BuildCover
// and CandidatePairs can share one.
func TestRefactorMatchesOldAlgorithm(t *testing.T) {
	t.Run("names", nameTableMatchesOldScans)
	for _, d := range oracleDatasets(t) {
		t.Run("tables/"+d.Name, func(t *testing.T) { checkWarmAndColdTables(t, d, DefaultConfig()) })
	}
	for corpus, names := range oracleCorpora(t) {
		for _, q := range []int{1, 2, 3} {
			for _, maxNbr := range []int{0, 2, 8} {
				cfg := DefaultConfig()
				cfg.Q, cfg.MaxNeighborhood = q, maxNbr
				t.Run(fmt.Sprintf("%s/q%d/max%d", corpus, q, maxNbr), func(t *testing.T) {
					checkMatchesOldScorer(t, names, cfg, 1, 3)
				})
			}
		}
	}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		names := duplicatedCorpus(rng, 4+rng.Intn(12))
		cfg := Config{Loose: 0.2 + 0.5*rng.Float64(), Q: 1 + rng.Intn(3), MaxAligned: 1}
		cfg.Tight = cfg.Loose + (0.9-cfg.Loose)*rng.Float64()
		if rng.Intn(3) > 0 {
			cfg.MaxNeighborhood = 2 + rng.Intn(12)
		}
		t.Run(fmt.Sprintf("duplicated/seed%d", seed), func(t *testing.T) {
			t.Logf("%d names, %+v", len(names), cfg)
			checkMatchesOldScorer(t, names, cfg, 1, 2, 3, 4)
		})
	}
}

// TestGramlessNamesStaySingletons pins the edge a shared row could blur:
// names that normalize to "", which has no grams (".", ",", "..."), all
// share one row, but a record without grams is not its own candidate, let
// alone its namesakes', so each is a canopy by itself — as the per-record
// scorer has it, batch, sharded and from the index, whose three chunks
// (checkMatchesOldScorer) each add records to the gramless row. ("-"
// normalizes to itself, one gram: its records do share a canopy.)
func TestGramlessNamesStaySingletons(t *testing.T) {
	names := []string{".", "John Smith", ",", ".", "john smith", "-", "...", "Jon Smith", ".", "-"}
	gramless := map[core.EntityID]bool{0: true, 2: true, 3: true, 6: true, 8: true}
	for _, maxNbr := range []int{0, 2} {
		cfg := DefaultConfig()
		cfg.MaxNeighborhood = maxNbr
		checkMatchesOldScorer(t, names, cfg, 1, 2, 3) // every path gives these canopies
		in := map[core.EntityID]int{}
		for _, c := range Canopies(names, cfg) {
			for _, e := range c {
				in[e]++
				if gramless[e] && len(c) != 1 {
					t.Errorf("max %d: gramless record %d %q is in canopy %v, want a singleton", maxNbr, e, names[e], c)
				}
			}
		}
		for e := range gramless {
			if in[e] != 1 {
				t.Errorf("max %d: gramless record %d is in %d canopies, want its own only", maxNbr, e, in[e])
			}
		}
	}
}

// TestIntegerBoundKeepsExactThreshold: where Loose·|x| is an integer, a row
// sharing exactly that many grams, and having no others, sits on the
// threshold and the float test keeps it — while the float product may land
// above the integer (0.28 * 25 is 7.000000000000001, so its ceiling is 8).
// minShared must be the least count the float test can pass, for every size
// and threshold, and the probe must keep such a row.
func TestIntegerBoundKeepsExactThreshold(t *testing.T) {
	for _, loose := range []float64{0.42, 0.28, 0.3, 0.07, 0.1, 0.2, 0.5, 0.55, 0.6, 0.7, 0.9, 1} {
		for n := 1; n <= 400; n++ {
			least := 0
			for float64(least)/float64(n) < loose {
				least++
			}
			if got := int(minShared(n, loose)); got != least {
				t.Fatalf("minShared(%d, %v) = %d, but %d shared grams is the least that can reach the threshold", n, loose, got, least)
			}
		}
	}
	for _, tc := range []struct {
		loose  float64
		n, hit int // |x|, and the shared grams that make Jaccard exactly loose
	}{{0.28, 25, 7}, {0.42, 50, 21}} {
		if got := math.Ceil(tc.loose * float64(tc.n)); tc.loose == 0.28 && int(got) == tc.hit {
			t.Errorf("ceil(%v * %d) = %v: the case no longer shows the product crossing the integer", tc.loose, tc.n, got)
		}
		x := make([]byte, tc.n)
		for i := range x {
			x[i] = 0x80 + byte(i) // distinct 1-grams; the table takes any string
		}
		tab := newGramTable(1)
		for _, s := range []string{string(x[:tc.hit]), string(x[:tc.hit-1]), string(x)} {
			tab.open(s)
		}
		got := tab.probe(2, tc.loose, make([]int32, len(tab.grams)))
		if want := []scored{{ID: 0, Sim: float64(tc.hit) / float64(tc.n)}, {ID: 2, Sim: 1}}; !reflect.DeepEqual(got, want) {
			t.Errorf("Loose %v, probe of the %d-gram row = %v, want %v: %d shared grams is exactly Loose", tc.loose, tc.n, got, want, tc.hit)
		}
	}
}

// FuzzCanopiesMatchOld: no name list, thresholds, gram size, cap or shard
// count makes the row scorer — batch, sharded or incremental — differ from
// the per-record map scorer.
func FuzzCanopiesMatchOld(f *testing.F) {
	f.Add("John Smith\nJon Smith\njohn  SMITH\nJ. Smith\nJohn Smith\n.\n-\nJohn Smith", uint8(42), uint8(85), uint8(2), uint8(0), uint8(2))
	f.Add("a\na\nab\nab\nabc\n\n...\na", uint8(10), uint8(10), uint8(1), uint8(2), uint8(3))
	f.Add("Vibhor Rastogi\nVibhor Rastogy\nVibhor Rastogi\nV. Rastogi\nVibhor Rastogy\nvibhor rastogi", uint8(30), uint8(60), uint8(3), uint8(3), uint8(4))
	f.Fuzz(func(t *testing.T, blob string, loose, tight, q, maxNbr, shards uint8) {
		names := strings.Split(blob, "\n")
		if len(names) > 120 {
			names = names[:120]
		}
		cfg := Config{Loose: float64(1+loose%100) / 100, Q: 1 + int(q%4), MaxAligned: 1}
		cfg.Tight = min(1, cfg.Loose+float64(tight%100)/100)
		if maxNbr%16 >= 2 {
			cfg.MaxNeighborhood = int(maxNbr % 16)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		checkMatchesOldScorer(t, names, cfg, 1, 2+int(shards%3))
	})
}

// sameScores compares candidate lists exactly (== on the similarities),
// treating nil and empty alike.
func sameScores(a, b []scored) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}
