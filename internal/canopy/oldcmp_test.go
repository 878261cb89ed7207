package canopy

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sort"
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

// finishCoverOld is the set construction of finishCover over the old scans.
func finishCoverOld(d *bib.Dataset, cfg Config, canopies [][]core.EntityID) [][]core.EntityID {
	if cfg.FullBoundary {
		return expandBoundaryOld(canopies, d.Coauthor())
	}
	return alignedExpandIntoOld(d, canopies, greedyTotalCoverOld(canopies, d.Coauthor()), cfg.MaxAligned)
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

// TestRefactorMatchesOldAlgorithm pins the counting probe against the map
// scorer: identical candidate lists with bit-identical similarities, and
// identical canopies, from the batch path at several shard counts and
// from the incremental index fed in chunks. Its "names" subtests pin the
// name table against the all-pairs scans, its "tables" subtests the two ways
// BuildCover and CandidatePairs can share one.
func TestRefactorMatchesOldAlgorithm(t *testing.T) {
	t.Run("names", nameTableMatchesOldScans)
	for _, d := range oracleDatasets(t) {
		t.Run("tables/"+d.Name, func(t *testing.T) { checkWarmAndColdTables(t, d, DefaultConfig()) })
	}
	ctx := context.Background()
	for corpus, names := range oracleCorpora(t) {
		for _, q := range []int{1, 2, 3} {
			for _, maxNbr := range []int{0, 2, 8} {
				cfg := DefaultConfig()
				cfg.Q, cfg.MaxNeighborhood = q, maxNbr
				t.Run(fmt.Sprintf("%s/q%d/max%d", corpus, q, maxNbr), func(t *testing.T) {
					wantScores, want := scoresOld(names, cfg), canopiesOld(names, cfg)

					// The probe itself, every record as seed. == on the
					// float64 similarities, via DeepEqual.
					tab := newGramTable(cfg.Q)
					for _, name := range names {
						tab.insert(normalize(name))
					}
					var sc probeScratch
					for i := range names {
						if got := tab.probe(tab.grams[i], cfg.Loose, &sc); !sameScores(got, wantScores[i]) {
							t.Fatalf("probe(%d %q) = %v, old scorer %v", i, names[i], got, wantScores[i])
						}
					}

					for _, shards := range []int{1, 3} {
						got, err := CanopiesContext(ctx, names, cfg, shards)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("shards=%d: canopies differ from the old algorithm", shards)
						}
					}

					// The incremental index, fed in three chunks.
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
					for _, hi := range []int{len(recs) / 3, 2 * len(recs) / 3, len(recs)} {
						d, err := bib.DatasetFromRecords(corpus, recs[:hi])
						if err != nil {
							t.Fatal(err)
						}
						if _, _, err := ix.Add(ctx, d); err != nil {
							t.Fatal(err)
						}
					}
					for i := range names {
						if !sameScores(ix.cands[i], wantScores[i]) {
							t.Fatalf("index candidates of %d %q = %v, old scorer %v", i, names[i], ix.cands[i], wantScores[i])
						}
					}
					if got := ix.emit(); !reflect.DeepEqual(got, want) {
						t.Fatal("index canopies differ from the old algorithm")
					}
				})
			}
		}
	}
}

// sameScores compares candidate lists exactly (== on the similarities),
// treating nil and empty alike.
func sameScores(a, b []scored) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}
