package eval

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bib"
	"repro/internal/core"
	"repro/internal/datagen"
)

func ps(pairs ...[2]int32) core.PairSet {
	s := core.NewPairSet()
	for _, p := range pairs {
		s.Add(core.MakePair(p[0], p[1]))
	}
	return s
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestPrecisionRecallExact(t *testing.T) {
	pred := ps([2]int32{0, 1}, [2]int32{2, 3})
	truth := ps([2]int32{0, 1}, [2]int32{2, 3})
	m := PrecisionRecall(pred, truth)
	if !approx(m.Precision, 1) || !approx(m.Recall, 1) || !approx(m.F1, 1) {
		t.Errorf("perfect match scored %v", m)
	}
	if m.TP != 2 || m.FP != 0 || m.FN != 0 {
		t.Errorf("counts = %+v", m)
	}
}

func TestPrecisionRecallPartial(t *testing.T) {
	pred := ps([2]int32{0, 1}, [2]int32{4, 5})  // 1 right, 1 wrong
	truth := ps([2]int32{0, 1}, [2]int32{2, 3}) // 1 found, 1 missed
	m := PrecisionRecall(pred, truth)
	if !approx(m.Precision, 0.5) || !approx(m.Recall, 0.5) || !approx(m.F1, 0.5) {
		t.Errorf("got %v, want 0.5 across the board", m)
	}
}

func TestPrecisionRecallEmptyCases(t *testing.T) {
	truth := ps([2]int32{0, 1})
	m := PrecisionRecall(core.NewPairSet(), truth)
	if !approx(m.Precision, 1) || !approx(m.Recall, 0) || !approx(m.F1, 0) {
		t.Errorf("empty prediction scored %v", m)
	}
	m = PrecisionRecall(truth, core.NewPairSet())
	if !approx(m.Recall, 1) || !approx(m.Precision, 0) {
		t.Errorf("empty truth scored %v", m)
	}
	m = PrecisionRecall(core.NewPairSet(), core.NewPairSet())
	if !approx(m.Precision, 1) || !approx(m.Recall, 1) {
		t.Errorf("both empty scored %v", m)
	}
}

func TestSoundnessCompleteness(t *testing.T) {
	ref := ps([2]int32{0, 1}, [2]int32{2, 3}, [2]int32{4, 5})
	scheme := ps([2]int32{0, 1}, [2]int32{2, 3})
	if s := Soundness(scheme, ref); !approx(s, 1) {
		t.Errorf("Soundness = %v, want 1", s)
	}
	if c := Completeness(scheme, ref); !approx(c, 2.0/3.0) {
		t.Errorf("Completeness = %v, want 2/3", c)
	}
	unsound := ps([2]int32{0, 1}, [2]int32{8, 9})
	if s := Soundness(unsound, ref); !approx(s, 0.5) {
		t.Errorf("Soundness = %v, want 0.5", s)
	}
	if s := Soundness(core.NewPairSet(), ref); !approx(s, 1) {
		t.Errorf("empty scheme soundness = %v, want 1 (vacuous)", s)
	}
	if c := Completeness(scheme, core.NewPairSet()); !approx(c, 1) {
		t.Errorf("empty reference completeness = %v, want 1 (vacuous)", c)
	}
}

func TestEvaluateReport(t *testing.T) {
	res := &core.Result{
		Scheme:  "SMP",
		Matches: ps([2]int32{0, 1}),
	}
	truth := ps([2]int32{0, 1}, [2]int32{2, 3})
	ref := ps([2]int32{0, 1}, [2]int32{2, 3})
	r := Evaluate(res, truth, ref)
	if r.Scheme != "SMP" {
		t.Errorf("scheme = %q", r.Scheme)
	}
	if !approx(r.PRF.Recall, 0.5) || !approx(r.Soundness, 1) || !approx(r.Completeness, 0.5) {
		t.Errorf("report = %v", r)
	}
	if !strings.Contains(r.String(), "SMP") {
		t.Errorf("String = %q", r.String())
	}
	// nil reference: soundness/completeness default to 1.
	r2 := Evaluate(res, truth, nil)
	if !approx(r2.Soundness, 1) || !approx(r2.Completeness, 1) {
		t.Errorf("nil-reference report = %v", r2)
	}
}

// Property: F1 is the harmonic mean and lies between min and max of P and R.
func TestF1Bounds(t *testing.T) {
	f := func(raw []uint8) bool {
		pred, truth := core.NewPairSet(), core.NewPairSet()
		for i := 0; i+1 < len(raw); i += 2 {
			p := core.MakePair(core.EntityID(raw[i]%6), core.EntityID(raw[i+1]%6))
			if !p.Valid() {
				continue
			}
			if i%4 == 0 {
				pred.Add(p)
			} else {
				truth.Add(p)
			}
		}
		m := PrecisionRecall(pred, truth)
		lo, hi := math.Min(m.Precision, m.Recall), math.Max(m.Precision, m.Recall)
		return m.F1 >= lo-1e-12 && m.F1 <= hi+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: a scheme that is a subset of the reference is always sound.
func TestSubsetAlwaysSound(t *testing.T) {
	f := func(raw []uint8) bool {
		ref := core.NewPairSet()
		for i := 0; i+1 < len(raw); i += 2 {
			p := core.MakePair(core.EntityID(raw[i]%6), core.EntityID(raw[i+1]%6))
			if p.Valid() {
				ref.Add(p)
			}
		}
		scheme := core.NewPairSet()
		i := 0
		for p := range ref.All() {
			if i%2 == 0 {
				scheme.Add(p)
			}
			i++
		}
		return approx(Soundness(scheme, ref), 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPrecisionRecallLabelsMatchesTruthSet: counted from the gold labels,
// precision and recall equal PrecisionRecall against the set of true pairs,
// field for field, on all five generated corpus kinds — against random match
// sets, against the truth itself, and against nothing — and on random
// labelings with unlabeled entities and sparse, negative label ids.
func TestPrecisionRecallLabelsMatchesTruthSet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	check := func(name string, gold []int32, truth core.PairSet) {
		t.Helper()
		n := len(gold)
		for trial := 0; trial < 6; trial++ {
			predicted := core.NewPairSet()
			switch trial {
			case 0: // nothing predicted
			case 1:
				predicted = truth.Clone()
			default:
				// Random pairs, and pairs near the truth: a true pair with one
				// end moved, so both hits and misses are common.
				for k := range truth {
					p := k.Pair()
					switch rng.Intn(3) {
					case 0:
						predicted.Add(p)
					case 1:
						if b := core.EntityID(rng.Intn(n)); b != p.A {
							predicted.Add(core.MakePair(p.A, b))
						}
					}
				}
				for k := rng.Intn(n + 1); k > 0 && n > 1; k-- {
					if a, b := core.EntityID(rng.Intn(n)), core.EntityID(rng.Intn(n)); a != b {
						predicted.Add(core.MakePair(a, b))
					}
				}
			}
			if got, want := PrecisionRecallLabels(predicted, gold), PrecisionRecall(predicted, truth); got != want {
				t.Fatalf("%s trial %d: from labels %+v, from the truth set %+v", name, trial, got, want)
			}
		}
	}
	truthOf := func(d *bib.Dataset) core.PairSet {
		truth := core.NewPairSet()
		for p := range d.TruePairs() {
			truth.Add(core.MakePair(p[0], p[1]))
		}
		return truth
	}
	for _, d := range []*bib.Dataset{
		datagen.MustGenerate(datagen.HEPTHLike(0.1, 42)),
		datagen.MustGenerate(datagen.DBLPLike(0.1, 42)),
		datagen.MustGenerate(datagen.DBLPBigLike(0.01, 42)),
		datagen.MustGenerate(datagen.MillionLike(0.0002, 42)),
		func() *bib.Dataset {
			d, err := bib.DatasetFromRecords("people", datagen.MustGeneratePeople(datagen.PeopleLike(0.1, 42)))
			if err != nil {
				t.Fatal(err)
			}
			return d
		}(),
	} {
		gold := make([]int32, len(d.Refs))
		for i := range d.Refs {
			gold[i] = d.Refs[i].True
		}
		truth := truthOf(d)
		if truth.Len() == 0 {
			t.Fatalf("%s: no true pairs", d.Name)
		}
		t.Logf("%s: %d references, %d true pairs", d.Name, len(d.Refs), truth.Len())
		check(d.Name, gold, truth)
	}
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(80)
		gold := make([]int32, n)
		for i := range gold {
			gold[i] = int32(rng.Intn(1+n/3)*1_000_003 - 7) // some negative: unlabeled
		}
		truth := core.NewPairSet()
		for a := range n {
			for b := a + 1; b < n; b++ {
				if gold[a] >= 0 && gold[a] == gold[b] {
					truth.Add(core.MakePair(core.EntityID(a), core.EntityID(b)))
				}
			}
		}
		check("random", gold, truth)
	}
}
