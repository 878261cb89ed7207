package bib

import (
	"errors"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/similarity"
)

// extendNames is the name pool of the Extend tests: repeated spellings of a
// few authors, initials against full names, and a name that parses to
// nothing, so classes are shared within and across any cut.
var extendNames = []string{
	"V. Rastogi", "Vibhor Rastogi", "vibhor rastogi", "N. Dalvi", "Nilesh Dalvi", "n dalvi",
	"M. Garofalakis", "Minos Garofalakis", "Rastogi", ".", "J. Smith", "John Smith", "Jon Smith",
}

// randomRecords draws n records over extendNames, groups 0-4 or ungrouped,
// gold 0-5 or unlabeled.
func randomRecords(rng *rand.Rand, n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Name:  extendNames[rng.Intn(len(extendNames))],
			Group: int32(rng.Intn(6)) - 1,
			Gold:  int32(rng.Intn(7)) - 1,
		}
	}
	return recs
}

// whole is s up to its capacity, so a write past len(s) into memory s owns
// shows in a copy of it.
func whole[S ~[]E, E any](s S) S { return s[:cap(s)] }

// frozen is a deep copy of d, every slice taken up to its capacity: equal
// before and after a call exactly when the call wrote nothing d reaches.
func frozen(d *Dataset) *Dataset {
	f := &Dataset{Name: d.Name, Refs: slices.Clone(whole(d.Refs)), Papers: slices.Clone(whole(d.Papers)), groups: maps.Clone(d.groups)}
	for i := range f.Papers {
		f.Papers[i].Refs = slices.Clone(whole(f.Papers[i].Refs))
	}
	if t := d.names; t != nil {
		f.names = &NameTable{
			class: slices.Clone(whole(t.class)), names: slices.Clone(whole(t.names)),
			full: slices.Clone(whole(t.full)), self: slices.Clone(whole(t.self)),
			last: slices.Clone(whole(t.last)), lasts: slices.Clone(whole(t.lasts)),
			lastPairs: t.lastPairs.Clone(), pairs: t.pairs.Clone(), keptRefs: t.keptRefs, keptPairs: t.keptPairs,
		}
	}
	return f
}

// scoredLevel asks t for the level of a pair ScoredPairs yielded.
func scoredLevel(t *NameTable, p ScoredPair) similarity.Level {
	if p.Last {
		return t.LastLevel(p.X, p.Y)
	}
	return t.Level(p.X, p.Y)
}

// scoreSome asks the table for a random half of its class pairs, so a prior
// holds some scored pairs and not others.
func scoreSome(rng *rand.Rand, t *NameTable) {
	for x := range int32(t.Classes()) {
		for y := x + 1; y < int32(t.Classes()); y++ {
			if rng.Intn(2) == 0 {
				t.Level(x, y)
			}
		}
	}
}

// checkExtended holds e, an extension of prior, to want, the same records
// built from scratch: the references, papers, groups and validity, and a
// name table with want's classes, normalized names and levels for every
// reference pair. A prior whose table was built hands e a continuation of
// it: prior's class pairs at their levels, and its counts as Kept.
func checkExtended(t *testing.T, prior, e, want *Dataset) {
	t.Helper()
	if e.Name != want.Name || !reflect.DeepEqual(e.Refs, want.Refs) || !reflect.DeepEqual(e.Papers, want.Papers) || !maps.Equal(e.groups, want.groups) {
		t.Fatalf("extended %d refs by %d: got refs %v papers %v, want refs %v papers %v",
			len(prior.Refs), len(e.Refs)-len(prior.Refs), e.Refs, e.Papers, want.Refs, want.Papers)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if prior.names == nil {
		if e.names != nil {
			t.Fatal("Extend built a name table the prior did not have")
		}
	} else {
		if e.names == nil {
			t.Fatal("Extend dropped the prior's built name table")
		}
		if refs, pairs := e.names.Kept(); refs != len(prior.Refs) || pairs != prior.names.Scored() {
			t.Fatalf("Kept() = (%d, %d), the prior has %d refs and %d scored pairs", refs, pairs, len(prior.Refs), prior.names.Scored())
		}
		scored := e.names.Scored()
		for p, l := range prior.names.ScoredPairs() {
			if got := scoredLevel(e.names, p); got != l {
				t.Fatalf("inherited pair %+v at level %d, the prior scored %d", p, got, l)
			}
		}
		if e.names.Scored() != scored {
			t.Fatal("an inherited class pair was scored again")
		}
	}
	got, fresh := e.Names(), want.Names()
	if got.Classes() != fresh.Classes() {
		t.Fatalf("%d classes, a fresh table has %d", got.Classes(), fresh.Classes())
	}
	for a := range RefID(len(e.Refs)) {
		if got.Class(a) != fresh.Class(a) || got.Normalized(a) != fresh.Normalized(a) {
			t.Fatalf("ref %d: class %d %q, a fresh table says %d %q", a, got.Class(a), got.Normalized(a), fresh.Class(a), fresh.Normalized(a))
		}
		for b := range RefID(len(e.Refs)) {
			if got.RefLevel(a, b) != fresh.RefLevel(a, b) {
				t.Fatalf("RefLevel(%d, %d) = %d, a fresh table says %d", a, b, got.RefLevel(a, b), fresh.RefLevel(a, b))
			}
		}
	}
}

// TestExtendMatchesDatasetFromRecords: for random record lists split at
// every cut — groups spanning the cut, ungrouped and unlabeled records,
// repeated names — extending the dataset of the prefix by the suffix gives
// the dataset of the whole list, with or without a built name table on the
// prefix, and leaves the prefix's dataset exactly as it was. Two goroutines
// extending one prior is race-free and gives both the same result.
func TestExtendMatchesDatasetFromRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := range 30 {
		recs := randomRecords(rng, 1+rng.Intn(30))
		want, err := DatasetFromRecords("all", recs)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 1; cut <= len(recs); cut++ {
			prior, err := DatasetFromRecords("prefix", recs[:cut])
			if err != nil {
				t.Fatal(err)
			}
			if (trial+cut)%2 == 0 {
				scoreSome(rng, prior.Names())
			}
			before := frozen(prior)
			e, err := prior.Extend("all", recs[cut:])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(frozen(prior), before) {
				t.Fatalf("trial %d cut %d: Extend wrote into the prior", trial, cut)
			}
			if prior.names != nil && e.names.Scored() != prior.names.Scored() {
				t.Fatalf("trial %d cut %d: Extend scored %d class pairs", trial, cut, e.names.Scored()-prior.names.Scored())
			}
			checkExtended(t, prior, e, want)
			if !reflect.DeepEqual(frozen(prior), before) {
				t.Fatalf("trial %d cut %d: using the extension wrote into the prior", trial, cut)
			}
		}
	}

	t.Run("concurrent", func(t *testing.T) {
		recs := randomRecords(rng, 60)
		// A cut inside a group: both extensions append to a paper of the prior.
		for recs[29].Group < 0 || !slices.ContainsFunc(recs[30:], func(r Record) bool { return r.Group == recs[29].Group }) {
			recs = randomRecords(rng, 60)
		}
		want, err := DatasetFromRecords("all", recs)
		if err != nil {
			t.Fatal(err)
		}
		prior, err := DatasetFromRecords("prefix", recs[:30])
		if err != nil {
			t.Fatal(err)
		}
		scoreSome(rng, prior.Names())
		before := frozen(prior)
		got := make([]*Dataset, 2)
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got[i], errs[i] = prior.Extend("all", recs[30:]); errs[i] == nil {
					got[i].Names().RefLevel(0, RefID(len(recs)-1)) // a write to each extension's own table
				}
			}()
		}
		wg.Wait()
		for i, e := range got {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			checkExtended(t, prior, e, want)
		}
		if !reflect.DeepEqual(frozen(prior), before) {
			t.Fatal("concurrent extensions wrote into the prior")
		}
	})

	t.Run("errors", func(t *testing.T) {
		prior, err := DatasetFromRecords("prefix", []Record{{Name: "V. Rastogi", Group: 0, Gold: 0}})
		if err != nil {
			t.Fatal(err)
		}
		prior.Names()
		before := frozen(prior)
		if _, err := prior.Extend("x", []Record{{Name: "N. Dalvi", Group: 0}, {Name: "", Group: 0}}); err == nil {
			t.Error("Extend accepted an empty name")
		}
		if !reflect.DeepEqual(frozen(prior), before) {
			t.Error("a refused Extend wrote into the prior")
		}
		if _, err := tiny().Extend("x", []Record{{Name: "N. Dalvi", Group: -1}}); !errors.Is(err, ErrNotFromRecords) {
			t.Errorf("Extend of a dataset not built from records: %v, want ErrNotFromRecords", err)
		}
		prior.InvalidateCoauthor()
		if _, err := prior.Extend("x", []Record{{Name: "N. Dalvi", Group: -1}}); !errors.Is(err, ErrNotFromRecords) {
			t.Errorf("Extend after InvalidateCoauthor: %v, want ErrNotFromRecords", err)
		}
	})
}
