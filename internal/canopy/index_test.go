package canopy

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/bib"
	"repro/internal/core"
	"repro/internal/datagen"
)

// splitBatches cuts records into 1..maxBatches non-empty batches at
// rng-chosen boundaries, preserving order.
func splitBatches(rng *rand.Rand, recs []bib.Record, maxBatches int) [][]bib.Record {
	n := len(recs)
	k := 1 + rng.Intn(maxBatches)
	if k > n {
		k = n
	}
	cuts := map[int]bool{0: true}
	for len(cuts) < k {
		cuts[rng.Intn(n-1)+1] = true
	}
	var at []int
	for c := range cuts {
		at = append(at, c)
	}
	// map iteration order is random; sort boundaries ascending.
	for i := range at {
		for j := i + 1; j < len(at); j++ {
			if at[j] < at[i] {
				at[i], at[j] = at[j], at[i]
			}
		}
	}
	var out [][]bib.Record
	for i, lo := range at {
		hi := n
		if i+1 < len(at) {
			hi = at[i+1]
		}
		out = append(out, recs[lo:hi])
	}
	return out
}

// coversEqual compares two covers set-by-set (order and content).
func coversEqual(a, b *core.Cover) bool {
	return a.NumEntities == b.NumEntities && reflect.DeepEqual(a.Sets, b.Sets)
}

// TestIndexAddMatchesBuildCover is the delta-ingestion blocking property:
// for random arrival sequences (shuffled record order, random batch
// boundaries), the cover after every Index.Add is identical to rebuilding
// from scratch over the records ingested so far, and after every additive
// Add the candidates carried from the previous cover are the cover's.
func TestIndexAddMatchesBuildCover(t *testing.T) {
	for _, preset := range []datagen.Config{
		datagen.HEPTHLike(0.25, 42),
		datagen.DBLPLike(0.25, 42),
	} {
		d := datagen.MustGenerate(preset)
		records := bib.ToRecords(d)
		for seed := int64(0); seed < 4; seed++ {
			t.Run(fmt.Sprintf("%s-seed%d", preset.Name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				recs := append([]bib.Record(nil), records...)
				rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
				batches := splitBatches(rng, recs, 5)

				ix, err := NewIndex(DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				var ingested []bib.Record
				var prevCands []SimilarPair
				for bi, batch := range batches {
					ingested = append(ingested, batch...)
					union, err := bib.DatasetFromRecords(preset.Name, ingested)
					if err != nil {
						t.Fatal(err)
					}
					prev := ix.Cover()
					got, delta, err := ix.Add(context.Background(), union)
					if err != nil {
						t.Fatal(err)
					}
					checkDeltaByContent(t, prev, got, delta)
					// The old scans pruned by brute force, over the prefix.
					if want := finishCoverOld(union, DefaultConfig(), canopiesOld(refNames(union), DefaultConfig())); !reflect.DeepEqual(got.Sets, want) {
						t.Fatalf("batch %d: incremental cover differs from the old scans over %d records", bi, len(ingested))
					}
					// Add filled union's name table (ingest reads the normalized
					// names off it, finishCover the levels); candidates read off
					// that warm table are the old scan's.
					cands := CandidatePairs(union, got)
					if old := candidatePairsOld(union, got); !slices.Equal(cands, old) {
						t.Fatalf("batch %d: %d candidates after Add, old scan %d, or a pair or level differs", bi, len(cands), len(old))
					}
					if prev != nil && delta.Additive {
						if carried := CarriedCandidatePairs(union, got, prevCands, delta.Changed); !slices.Equal(carried, cands) {
							t.Fatalf("batch %d: %d candidates carried over %d changed sets, %d enumerated", bi, len(carried), len(delta.Changed), len(cands))
						}
					}
					prevCands = cands
					want := BuildCover(union, DefaultConfig())
					if !coversEqual(got, want) {
						t.Fatalf("batch %d: incremental cover differs from scratch rebuild over %d records",
							bi, len(ingested))
					}
					if len(delta.NewEntities) != len(batch) {
						t.Fatalf("batch %d: delta reports %d new entities, want %d",
							bi, len(delta.NewEntities), len(batch))
					}
				}
				if ix.Len() != len(records) {
					t.Fatalf("index ingested %d records, want %d", ix.Len(), len(records))
				}
				full, err := bib.DatasetFromRecords(preset.Name, ingested)
				if err != nil {
					t.Fatal(err)
				}
				checkWarmAndColdTables(t, full, DefaultConfig())
			})
		}
	}
}

// TestIndexEmitMatchesOldAlgorithm extends the oldcmp pinning to the
// delta index: after any arrival sequence, the canopies the index emits
// from its cached candidate lists must equal the verbatim pre-refactor
// serial algorithm on the union names.
func TestIndexEmitMatchesOldAlgorithm(t *testing.T) {
	for _, preset := range []datagen.Config{
		datagen.HEPTHLike(0.25, 42),
		datagen.DBLPLike(0.25, 42),
	} {
		d := datagen.MustGenerate(preset)
		records := bib.ToRecords(d)
		rng := rand.New(rand.NewSource(7))
		batches := splitBatches(rng, records, 4)

		ix, err := NewIndex(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var ingested []bib.Record
		for _, batch := range batches {
			ingested = append(ingested, batch...)
			union, err := bib.DatasetFromRecords(preset.Name, ingested)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := ix.Add(context.Background(), union); err != nil {
				t.Fatal(err)
			}
			names := make([]string, len(ingested))
			for i := range ingested {
				names[i] = ingested[i].Name
			}
			if got, want := ix.emit(), canopiesOld(names, DefaultConfig()); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: index canopies after %d records differ from the old serial algorithm",
					preset.Name, len(ingested))
			}
		}
	}
}

// TestIndexAddRejectsShrunkDataset pins the append-only contract.
func TestIndexAddRejectsShrunkDataset(t *testing.T) {
	recs := []bib.Record{
		{Name: "a smith", Group: 0, Gold: 0},
		{Name: "b jones", Group: 0, Gold: 1},
	}
	full, err := bib.DatasetFromRecords("t", recs)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Add(context.Background(), full); err != nil {
		t.Fatal(err)
	}
	short, err := bib.DatasetFromRecords("t", recs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Add(context.Background(), short); err == nil {
		t.Fatal("Add accepted a dataset with fewer records than already ingested")
	}
}

// TestNewIndexValidates pins configuration validation at construction.
func TestNewIndexValidates(t *testing.T) {
	if _, err := NewIndex(Config{Loose: -1, Tight: 0.9, Q: 2}); err == nil {
		t.Fatal("NewIndex accepted an invalid config")
	}
}

// FuzzIndexAdd feeds arbitrary name/group material through random batch
// splits, then a batch of at least 64 further names (wideBatch), into an
// index of 1, 2 or 4 scoring workers, and checks the incremental cover
// against the scratch rebuild after every batch — the nightly-fuzzed
// version of TestIndexAddMatchesBuildCover.
func FuzzIndexAdd(f *testing.F) {
	f.Add([]byte("a smith\x00b smyth\x00c jones\x00a smith\x00d s\x00bb jones"), uint16(0), int64(1), uint8(1))
	f.Add([]byte("x\x00y\x00z"), uint16(3), int64(9), uint8(2))
	f.Add([]byte("j doe\x00j d\x00jane doe\x00john doe\x00j doe"), uint16(2), int64(3), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, groups uint16, seed int64, shards uint8) {
		recs := fuzzRecords(raw, groups)
		if len(recs) == 0 {
			t.Skip("no usable records")
		}
		rng := rand.New(rand.NewSource(seed))
		batches := append(splitBatches(rng, recs, 4), wideBatch(recs))

		ix := newIndex(DefaultConfig(), []int{1, 2, 4}[shards%3])
		var ingested []bib.Record
		for bi, batch := range batches {
			ingested = append(ingested, batch...)
			union, err := bib.DatasetFromRecords("fuzz", ingested)
			if err != nil {
				t.Skip("records rejected by dataset synthesis")
			}
			prev := ix.Cover()
			got, delta, err := ix.Add(context.Background(), union)
			if err != nil {
				t.Fatal(err)
			}
			if want := BuildCover(union, DefaultConfig()); !coversEqual(got, want) {
				t.Fatalf("batch %d: incremental cover diverges from scratch rebuild on %d fuzz records",
					bi, len(ingested))
			}
			checkTotalAndMaximal(t, union, got)
			checkDeltaByContent(t, prev, got, delta)
		}
	})
}

// wideBatch returns 64 records after recs: each of recs' names, cycled, with
// a two-letter last name of its own, and their groups — a batch of enough
// new names for an Add to score them on more than one worker.
func wideBatch(recs []bib.Record) []bib.Record {
	out := make([]bib.Record, 2*rowsPerShard)
	for i := range out {
		out[i] = recs[i%len(recs)]
		out[i].Name += fmt.Sprintf(" %c%c", 'a'+i%26, 'a'+i/26)
	}
	return out
}

// checkDeltaByContent holds an Add's delta to a brute-force diff of the
// covers before and after it (prev nil before the first Add): Changed lists
// the new sets equal to no previous set, Regressed the previous sets inside
// no new set, and Additive is true exactly when there are none of those.
func checkDeltaByContent(t testing.TB, prev, cur *core.Cover, delta *Delta) {
	t.Helper()
	var prevSets [][]core.EntityID
	if prev != nil {
		prevSets = prev.Sets
	}
	member := make([]map[core.EntityID]bool, cur.Len())
	for i, set := range cur.Sets {
		member[i] = map[core.EntityID]bool{}
		for _, e := range set {
			member[i][e] = true
		}
	}
	inSomeNewSet := func(set []core.EntityID) bool {
		for j := range member {
			if !slices.ContainsFunc(set, func(e core.EntityID) bool { return !member[j][e] }) {
				return true
			}
		}
		return false
	}
	var changed, regressed []int32
	for i, set := range cur.Sets {
		if !slices.ContainsFunc(prevSets, func(p []core.EntityID) bool { return slices.Equal(p, set) }) {
			changed = append(changed, int32(i))
		}
	}
	for i, set := range prevSets {
		if !inSomeNewSet(set) {
			regressed = append(regressed, int32(i))
		}
	}
	if !slices.Equal(delta.Changed, changed) || !slices.Equal(delta.Regressed, regressed) || delta.Additive != (len(regressed) == 0) {
		t.Fatalf("delta: changed %v, regressed %v, additive %v; brute force: changed %v, regressed %v",
			delta.Changed, delta.Regressed, delta.Additive, changed, regressed)
	}
}

// fuzzRecords turns fuzz bytes into ingestible records: NUL-separated
// names (sanitized to printable ASCII), cyclic group assignment over
// groups+1 groups with every third record ungrouped.
func fuzzRecords(raw []byte, groups uint16) []bib.Record {
	const maxRecords, maxName = 48, 24
	var recs []bib.Record
	start := 0
	emit := func(tok []byte) {
		if len(recs) >= maxRecords {
			return
		}
		if len(tok) > maxName {
			tok = tok[:maxName]
		}
		name := make([]byte, 0, len(tok))
		for _, b := range tok {
			switch {
			case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b >= '0' && b <= '9':
				name = append(name, b)
			case b == ' ', b == '.', b == '-':
				name = append(name, b)
			default:
				name = append(name, 'a'+b%26)
			}
		}
		if len(name) == 0 {
			return
		}
		g := int32(-1)
		if len(recs)%3 != 2 {
			g = int32(len(recs)) % (int32(groups) + 1)
		}
		recs = append(recs, bib.Record{Name: string(name), Group: g, Gold: -1})
	}
	for i, b := range raw {
		if b == 0 {
			emit(raw[start:i])
			start = i + 1
		}
	}
	emit(raw[start:])
	return recs
}

// cancelAt is a context whose Err reports cancellation from its k-th call
// on: a cancellation landing exactly at the k-th check inside one Add. The
// count is atomic, as the workers of a sharded Add check concurrently.
type cancelAt struct {
	context.Context
	k atomic.Int64
}

func newCancelAt(ctx context.Context, k int) *cancelAt {
	c := &cancelAt{Context: ctx}
	c.k.Store(int64(k))
	return c
}

func (c *cancelAt) Err() error {
	if c.k.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// blockingState is everything an Add writes before it can fail, for
// comparison between indexes: the saved blob covers names, rows of records
// and candidate lists, and the table's derived half — gram dictionary, name
// lookup, gram lists, postings — and the probe counters are read directly.
type blockingState struct {
	blob            []byte
	ids, rows       map[string]int32
	grams, postings [][]int32
	cnt             []int32
}

func stateOf(t *testing.T, ix *Index) blockingState {
	t.Helper()
	return blockingState{ix.Save(nil), ix.tab.ids, ix.tab.rows, ix.tab.grams, ix.tab.postings, ix.cnt}
}

// TestIndexAddIsAllOrNothing cancels an Add at every context check it makes
// — before each probe of a row the batch opens, before emission, and the two
// inside finishCover — and requires the index to be exactly where it was:
// same length, same cover, same rows, members, dictionary and postings, and
// after the same Add is retried the same cover, delta and state as an index
// that never saw a cancellation. It does so on one scoring worker, and on
// four over a batch that opens enough rows to start more than one.
func TestIndexAddIsAllOrNothing(t *testing.T) {
	for _, tc := range []struct {
		corpus datagen.Config
		shards int
	}{
		{datagen.HEPTHLike(0.05, 42), 1},
		{datagen.DBLPLike(0.25, 42), 4},
	} {
		t.Run(fmt.Sprintf("%s/shards=%d", tc.corpus.Name, tc.shards), func(t *testing.T) {
			checkAddIsAllOrNothing(t, bib.ToRecords(datagen.MustGenerate(tc.corpus)), tc.shards)
		})
	}
}

func checkAddIsAllOrNothing(t *testing.T, records []bib.Record, shards int) {
	base := 2 * len(records) / 3
	first, err := bib.DatasetFromRecords("atomic", records[:base])
	if err != nil {
		t.Fatal(err)
	}
	union, err := bib.DatasetFromRecords("atomic", records)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	grown := func() *Index {
		ix := newIndex(DefaultConfig(), shards)
		if _, _, err := ix.Add(ctx, first); err != nil {
			t.Fatal(err)
		}
		return ix
	}

	ref := grown()
	before := stateOf(t, grown())
	wantCover, wantDelta, err := ref.Add(ctx, union)
	if err != nil {
		t.Fatal(err)
	}
	after := stateOf(t, ref)
	fresh := len(after.grams) - len(before.grams)
	if fresh == 0 || len(after.postings) == len(before.postings) {
		t.Fatalf("the batch brings no new name or no new gram (%d rows, %d grams after it): nothing to roll back", len(after.grams), len(after.postings))
	}
	if shards > 1 && scoringShards(shards, fresh) < 2 {
		t.Fatalf("the batch opens %d rows: too few to score on more than one worker", fresh)
	}

	checks := fresh + 3
	for k := 0; k <= checks; k++ {
		ix := grown()
		_, _, err := ix.Add(newCancelAt(ctx, k), union)
		if k == checks {
			if err != nil {
				t.Fatalf("Add makes more than %d context checks: %v", checks, err)
			}
			break
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at check %d: err = %v, want context.Canceled", k, err)
		}
		if ix.Len() != base || !reflect.DeepEqual(stateOf(t, ix), before) {
			t.Fatalf("cancel at check %d: the index moved (Len %d, want %d)", k, ix.Len(), base)
		}
		// An empty delta must not hand out a cover the canceled Add built.
		if c, _, err := ix.Add(ctx, first); err != nil || !coversEqual(c, ix.Cover()) || c.NumEntities != base {
			t.Fatalf("cancel at check %d: Add of the old dataset: cover over %d entities, err %v", k, c.NumEntities, err)
		}
		cover, delta, err := ix.Add(ctx, union)
		if err != nil {
			t.Fatal(err)
		}
		if !coversEqual(cover, wantCover) || !reflect.DeepEqual(delta, wantDelta) || !reflect.DeepEqual(stateOf(t, ix), after) {
			t.Fatalf("cancel at check %d: the retried Add differs from an index that never saw the cancel", k)
		}
	}
}
