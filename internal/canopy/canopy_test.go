package canopy

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bib"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/similarity"
)

func TestCanopiesCoverEveryName(t *testing.T) {
	names := []string{
		"Vibhor Rastogi", "V. Rastogi", "Nilesh Dalvi", "N. Dalvi",
		"Minos Garofalakis", "Zzyzx Qwertyuiop",
	}
	sets := Canopies(names, DefaultConfig())
	covered := make([]bool, len(names))
	for _, s := range sets {
		for _, e := range s {
			covered[e] = true
		}
	}
	for i, c := range covered {
		if !c {
			t.Errorf("name %d (%q) not covered by any canopy", i, names[i])
		}
	}
}

func TestCanopiesGroupSimilarNames(t *testing.T) {
	names := []string{
		"Vibhor Rastogi", // 0
		"V. Rastogi",     // 1
		"Vibhor Rastogy", // 2 (typo)
		"Nilesh Dalvi",   // 3
	}
	sets := Canopies(names, DefaultConfig())
	share := func(a, b core.EntityID) bool {
		for _, s := range sets {
			hasA, hasB := false, false
			for _, e := range s {
				if e == a {
					hasA = true
				}
				if e == b {
					hasB = true
				}
			}
			if hasA && hasB {
				return true
			}
		}
		return false
	}
	if !share(0, 1) || !share(0, 2) {
		t.Error("similar names must share a canopy")
	}
	if share(0, 3) {
		t.Error("dissimilar names must not share a canopy")
	}
}

func TestCanopiesDeterministic(t *testing.T) {
	names := []string{"A. Kumar", "Anil Kumar", "Amit Kumar", "B. Lee", "Bin Lee"}
	a := Canopies(names, DefaultConfig())
	b := Canopies(names, DefaultConfig())
	if len(a) != len(b) {
		t.Fatalf("canopy counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("canopy %d sizes differ", i)
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("canopy %d differs at %d", i, j)
			}
		}
	}
}

func TestExpandBoundary(t *testing.T) {
	b := graph.NewBuilder(5)
	b.AddEdge(0, 3) // 3 is a coauthor of 0
	b.AddEdge(1, 4)
	rel := b.Build()
	sets := [][]core.EntityID{{0, 1}, {2}}
	out := ExpandBoundary(sets, rel)
	if len(out[0]) != 4 { // {0,1} + boundary {3,4}
		t.Errorf("expanded set 0 = %v", out[0])
	}
	if len(out[1]) != 1 { // isolated entity: unchanged
		t.Errorf("expanded set 1 = %v", out[1])
	}
}

// TestBuildCoverIsTotal: on generated data the built cover must be a
// cover, total w.r.t. the Coauthor relation (Definition 7), and hold no
// neighborhood contained in another — with aligned context and with full
// boundaries.
func TestBuildCoverIsTotal(t *testing.T) {
	full := DefaultConfig()
	full.FullBoundary = true
	for _, preset := range []datagen.Config{
		datagen.HEPTHLike(0.2, 3),
		datagen.DBLPLike(0.2, 3),
	} {
		d := datagen.MustGenerate(preset)
		for _, cfg := range []Config{DefaultConfig(), full} {
			checkTotalAndMaximal(t, d, BuildCover(d, cfg))
		}
	}
}

// checkTotalAndMaximal fails unless cover is a total cover of d w.r.t.
// Coauthor in which no neighborhood is a subset of another (brute force).
func checkTotalAndMaximal(t testing.TB, d *bib.Dataset, cover *core.Cover) {
	t.Helper()
	if !cover.IsCover() {
		t.Fatalf("%s: not a cover", d.Name)
	}
	if !cover.IsTotal(d.Coauthor()) {
		t.Fatalf("%s: cover not total w.r.t. Coauthor; uncovered edge %v",
			d.Name, cover.FirstUncovered(d.Coauthor()))
	}
	if kept := dropSubsumedOld(cover.Sets); len(kept) != cover.Len() {
		t.Fatalf("%s: %d of %d neighborhoods are contained in another", d.Name, cover.Len()-len(kept), cover.Len())
	}
}

// TestBlockingIsTotalOverSimilar: canopies form a total cover of the
// Similar relation — every pair of references with non-zero name level
// shares a canopy. (Blocking recall; §4 calls this "blocking is a total
// covering over the Similar relation".)
func TestBlockingIsTotalOverSimilar(t *testing.T) {
	d := datagen.MustGenerate(datagen.DBLPLike(0.15, 9))
	names := make([]string, d.NumRefs())
	for i := range d.Refs {
		names[i] = d.Refs[i].Name
	}
	sets := Canopies(names, DefaultConfig())
	inCanopy := make([]map[int]bool, len(names))
	for i := range inCanopy {
		inCanopy[i] = map[int]bool{}
	}
	for ci, s := range sets {
		for _, e := range s {
			inCanopy[e][ci] = true
		}
	}
	share := func(a, b int) bool {
		for c := range inCanopy[a] {
			if inCanopy[b][c] {
				return true
			}
		}
		return false
	}
	missed, total := 0, 0
	missedTrue, totalTrue := 0, 0
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if similarity.StringLevel(names[i], names[j]) == similarity.LevelNone {
				continue
			}
			total++
			isTrue := d.Refs[i].True == d.Refs[j].True
			if isTrue {
				totalTrue++
			}
			if !share(i, j) {
				missed++
				if isTrue {
					missedTrue++
				}
			}
		}
	}
	if total == 0 || totalTrue == 0 {
		t.Fatal("no similar pairs generated; dataset too sparse for the test")
	}
	// Practical canopies may split a small tail of garbage similar pairs,
	// but must essentially never block apart a true match.
	if frac := float64(missed) / float64(total); frac > 0.05 {
		t.Errorf("canopies miss %d/%d (%.3f) similar pairs", missed, total, frac)
	}
	if frac := float64(missedTrue) / float64(totalTrue); frac > 0.01 {
		t.Errorf("canopies miss %d/%d (%.3f) TRUE similar pairs", missedTrue, totalTrue, frac)
	}
}

// TestNeighborhoodRegimes: the HEPTH-like corpus must produce larger
// average neighborhoods than the DBLP-like corpus (the §6.1 observation
// that drives all the running-time differences).
func TestNeighborhoodRegimes(t *testing.T) {
	hep := datagen.MustGenerate(datagen.HEPTHLike(0.3, 5))
	dbl := datagen.MustGenerate(datagen.DBLPLike(0.3, 5))
	hepStats := BuildCover(hep, DefaultConfig()).ComputeStats()
	dblStats := BuildCover(dbl, DefaultConfig()).ComputeStats()
	if hepStats.MeanSize <= dblStats.MeanSize {
		t.Errorf("HEPTH mean neighborhood %.1f must exceed DBLP %.1f",
			hepStats.MeanSize, dblStats.MeanSize)
	}
}

func TestCandidatePairs(t *testing.T) {
	d := datagen.MustGenerate(datagen.DBLPLike(0.15, 4))
	cover := BuildCover(d, DefaultConfig())
	pairs := CandidatePairs(d, cover)
	if len(pairs) == 0 {
		t.Fatal("no candidate pairs")
	}
	seen := core.NewPairSet()
	for _, sp := range pairs {
		if !sp.Pair.Valid() {
			t.Fatalf("invalid pair %v", sp.Pair)
		}
		if sp.Level == similarity.LevelNone {
			t.Fatalf("pair %v has level none", sp.Pair)
		}
		if seen.Has(sp.Pair) {
			t.Fatalf("duplicate pair %v", sp.Pair)
		}
		seen.Add(sp.Pair)
	}
	// Candidate pairs must cover a decent share of true pairs (blocking
	// recall at the pair level).
	truth := d.TruePairs()
	hit := 0
	for p := range truth {
		if seen.Has(core.MakePair(p[0], p[1])) {
			hit++
		}
	}
	if frac := float64(hit) / float64(len(truth)); frac < 0.7 {
		t.Errorf("candidate pairs cover only %.2f of true pairs", frac)
	}
}

// TestProbeCountsSharedGrams drives the counting probe directly: records of
// one normalized name share a row, the similarity is |A∩B| / |A∪B| over
// distinct grams, candidate rows come back in ascending order and none past
// the probed row, the loose threshold filters, and the counters are clean
// for the next probe.
func TestProbeCountsSharedGrams(t *testing.T) {
	tab := newGramTable(2)
	var rows []int32
	for _, s := range []string{"bcd", "abc", "", "x", "abab", "abc"} {
		row, fresh := tab.insert(s)
		if want := len(rows) < 5; fresh != want {
			t.Fatalf("insert(%q) opened a row: %v, want %v", s, fresh, want)
		}
		rows = append(rows, row)
	}
	if want := []int32{0, 1, 2, 3, 4, 1}; !slices.Equal(rows, want) || !slices.Equal(tab.rowOf, want) {
		t.Fatalf("rows of the six records = %v (table %v), want %v: the two abc share one", rows, tab.rowOf, want)
	}
	tab.indexMembers()
	if got := tab.membersOf(1); !slices.Equal(got, []core.EntityID{1, 5}) {
		t.Fatalf("records of row abc = %v, want [1 5]", got)
	}
	if got := tab.grams[4]; len(got) != 2 || got[0] >= got[1] {
		t.Fatalf("grams(abab) = %v, want its two distinct grams ab, ba, ascending", got)
	}
	cnt := make([]int32, len(tab.names))
	const abc, abab = 1, 4 // {ab, bc}, {ab, ba}
	// abc shares ab with abab too, but abab is a later row: its own probe
	// finds the pair.
	want := []scored{{ID: 0, Sim: 1.0 / 3.0}, {ID: 1, Sim: 1}}
	for round := 0; round < 2; round++ { // twice: the counters must have been reset
		if got := tab.probe(abc, 0.1, cnt); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: probe(abc) = %v, want %v", round, got, want)
		}
	}
	if got, want := tab.probe(abab, 0.1, cnt), []scored{{ID: 1, Sim: 1.0 / 3.0}, {ID: 4, Sim: 1}}; !reflect.DeepEqual(got, want) {
		t.Errorf("probe(abab) = %v, want %v", got, want)
	}
	if got := tab.probe(abc, 0.5, cnt); !reflect.DeepEqual(got, want[1:2]) {
		t.Errorf("probe(abc, loose 0.5) = %v, want only its own row", got)
	}
	if got := tab.probe(2, 0.1, cnt); len(got) != 0 {
		t.Errorf("a row without grams has candidates %v", got)
	}
	// Shorter than q: the whole string is the gram, shared only with itself.
	if got := tab.probe(3, 0.1, cnt); !reflect.DeepEqual(got, []scored{{ID: 3, Sim: 1}}) {
		t.Errorf("probe(x) = %v, want only itself", got)
	}
	for j, c := range cnt {
		if c != 0 {
			t.Errorf("counter %d left at %d after the probes", j, c)
		}
	}
}

func BenchmarkBuildCoverHEPTH(b *testing.B) {
	d := datagen.MustGenerate(datagen.HEPTHLike(0.5, 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildCover(d, DefaultConfig())
	}
}

// scoringWork counts what scoring names costs: the table's rows, the rows
// probed (every row with grams, each once) and the incidences those probes
// count — the sum, over a probed row's grams, of the posting entries at or
// before the row.
func scoringWork(tb testing.TB, names []string, cfg Config) (rows, probes, incidences int) {
	tb.Helper()
	tab := newGramTable(cfg.Q)
	for _, name := range names {
		tab.insert(normalize(name))
	}
	for x, gs := range tab.grams {
		if len(gs) > 0 {
			probes++
		}
		for _, g := range gs {
			incidences += slices.Index(tab.postings[g], int32(x)) + 1 // x is in its grams' postings
		}
	}
	return len(tab.names), probes, incidences
}

// BenchmarkCanopies is the canopy-scoring stage on its own (bench metric
// canopy.canopies_s; nearly all of a cold run on workload dblp-cold, which
// is DBLP-like 1.0), on the committed workloads' corpora and one step up in
// size, with the work behind the time: rows/op distinct normalized names,
// probes/op and incidences/op as scoringWork counts them.
func BenchmarkCanopies(b *testing.B) {
	for _, corpus := range []struct {
		name  string
		names func() []string
	}{
		{"dblp-1", func() []string { return refNames(datagen.MustGenerate(datagen.DBLPLike(1.0, 42))) }},
		{"dblp-8", func() []string { return refNames(datagen.MustGenerate(datagen.DBLPLike(8, 42))) }},
		{"hepth-8", func() []string { return refNames(datagen.MustGenerate(datagen.HEPTHLike(8, 42))) }},
		{"people-0.7", func() []string {
			var names []string
			for _, r := range datagen.MustGeneratePeople(datagen.PeopleLike(0.7, 42)) {
				names = append(names, r.Name)
			}
			return names
		}},
	} {
		var names []string // generated when the first of its sub-benchmarks is selected
		var rows, probes, incidences int
		for _, shards := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/shards=%d", corpus.name, shards), func(b *testing.B) {
				if names == nil {
					names = corpus.names()
					rows, probes, incidences = scoringWork(b, names, DefaultConfig())
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := CanopiesContext(context.Background(), names, DefaultConfig(), shards); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(names)), "records/op")
				b.ReportMetric(float64(rows), "rows/op")
				b.ReportMetric(float64(probes), "probes/op")
				b.ReportMetric(float64(incidences), "incidences/op")
			})
		}
	}
}

// BenchmarkIndexAdd is the incremental path as a service drives it (bench
// metric canopy.index_add_s): DBLP-like 0.5 arriving in batches of 32, each
// Add on a dataset as just built, so the batch pays for its name table as
// an ingest does.
func BenchmarkIndexAdd(b *testing.B) {
	records := bib.ToRecords(datagen.MustGenerate(datagen.DBLPLike(0.5, 42)))
	var unions []*bib.Dataset
	for hi := 32; ; hi += 32 {
		d, err := bib.DatasetFromRecords("index-add", records[:min(hi, len(records))])
		if err != nil {
			b.Fatal(err)
		}
		unions = append(unions, d)
		if hi >= len(records) {
			break
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := NewIndex(DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range unions {
			b.StopTimer()
			d = freshCopy(d)
			b.StartTimer()
			if _, _, err := ix.Add(context.Background(), d); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(records)), "records/op")
	b.ReportMetric(float64(len(unions)), "batches/op")
}

// coldCorpora are the corpora of the two benchmarks below, those of the cold
// bench workloads at seed 42: HEPTH-like 0.5 (hepth-cold; 1461 references,
// 370 distinct parsed names, few large neighborhoods that repeat pairs many
// times) and DBLP-like 1.0 (dblp-cold; nearly every name its own class,
// many small neighborhoods), each with its canopies built once.
func coldCorpora() []struct {
	name     string
	d        *bib.Dataset
	canopies [][]core.EntityID
} {
	out := []struct {
		name     string
		d        *bib.Dataset
		canopies [][]core.EntityID
	}{
		{name: "hepth-0.5", d: datagen.MustGenerate(datagen.HEPTHLike(0.5, 42))},
		{name: "dblp-1", d: datagen.MustGenerate(datagen.DBLPLike(1.0, 42))},
	}
	for i := range out {
		out[i].canopies = Canopies(refNames(out[i].d), DefaultConfig())
	}
	return out
}

// repetition counts the name-similar pairs the sets emit (one occurrence per
// set holding the pair) and how many of them are distinct: the work blocking
// does once per distinct pair instead of once per occurrence.
func repetition(d *bib.Dataset, sets [][]core.EntityID) (occurrences, distinct int) {
	g := newClassGroups(d.Names())
	seen := map[core.Pair]bool{}
	for _, set := range sets {
		g.similarPairs(set, func(a, b core.EntityID, _ similarity.Level) {
			occurrences++
			seen[core.Pair{A: a, B: b}] = true
		})
	}
	return occurrences, len(seen)
}

// BenchmarkFinishCoverHEPTH is totality patching plus aligned expansion
// given the canopies (bench metric canopy.cover_finish_s), as a cold run pays
// for it: every iteration finishes a fresh copy of the dataset whose name
// table has parsed the names — the canopy step's share — and scored nothing,
// so kernel scoring is in the time. occurrences/op and distinct/op are the
// driving pairs of aligned expansion: the canopies' name-similar pairs.
func BenchmarkFinishCoverHEPTH(b *testing.B) {
	for _, c := range coldCorpora() {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d := freshCopy(c.d)
				d.Names()
				b.StartTimer()
				if _, err := finishCover(context.Background(), d, DefaultConfig(), c.canopies); err != nil {
					b.Fatal(err)
				}
			}
			occurrences, distinct := repetition(c.d, c.canopies)
			b.ReportMetric(float64(occurrences), "occurrences/op")
			b.ReportMetric(float64(distinct), "distinct/op")
		})
	}
}

// BenchmarkCandidatePairsHEPTH is candidate enumeration on its own (bench
// metric canopy.candidates_s), as a cold run pays for it: every iteration
// runs on a fresh copy of the dataset whose name table holds exactly what
// building its cover scored, so the class pairs only the cover's patched
// and aligned members bring together are scored in the time.
// occurrences/op and distinct/op are the candidates: the cover's
// name-similar pairs.
func BenchmarkCandidatePairsHEPTH(b *testing.B) {
	for _, c := range coldCorpora() {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var cover *core.Cover
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d := freshCopy(c.d)
				var err error
				if cover, err = finishCover(context.Background(), d, DefaultConfig(), c.canopies); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if len(CandidatePairs(d, cover)) == 0 {
					b.Fatal("no candidates")
				}
			}
			occurrences, distinct := repetition(c.d, cover.Sets)
			b.ReportMetric(float64(occurrences), "occurrences/op")
			b.ReportMetric(float64(distinct), "distinct/op")
		})
	}
}

// refNames lists the references' surface strings by reference id.
func refNames(d *bib.Dataset) []string {
	names := make([]string, d.NumRefs())
	for i := range d.Refs {
		names[i] = d.Refs[i].Name
	}
	return names
}
