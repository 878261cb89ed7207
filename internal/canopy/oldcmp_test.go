package canopy

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/bib"
	"repro/internal/core"
	"repro/internal/datagen"
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
// from the incremental index fed in chunks.
func TestRefactorMatchesOldAlgorithm(t *testing.T) {
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
