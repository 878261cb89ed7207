// Package eval implements the evaluation metrics of the paper's §2.2.1
// and §6: precision/recall/F1 of a match set against ground truth, and
// the framework-level soundness and completeness of a message-passing
// run against a reference run (FULL or the UB oracle).
package eval

import (
	"fmt"

	"repro/internal/core"
)

// PRF holds precision, recall and F1.
type PRF struct {
	Precision float64
	Recall    float64
	F1        float64
	TP        int // true positives
	FP        int // false positives
	FN        int // false negatives
}

// PrecisionRecall scores predicted matches against the ground-truth set.
// Empty predictions score precision 1 by convention (no wrong claims);
// empty truth scores recall 1.
func PrecisionRecall(predicted, truth core.PairSet) PRF {
	tp := 0
	for k := range predicted {
		if truth.HasKey(k) {
			tp++
		}
	}
	return prf(tp, predicted.Len(), truth.Len())
}

// PrecisionRecallLabels is PrecisionRecall against the truth gold labels
// define: entities a and b are a true pair when gold[a] == gold[b] >= 0. It
// counts from the labels in O(|predicted| + len(gold)) and never builds the
// truth set, whose size is the sum of C(k, 2) over the label counts k.
// Every entity of predicted must index gold.
func PrecisionRecallLabels(predicted core.PairSet, gold []int32) PRF {
	tp := 0
	for k := range predicted {
		p := k.Pair()
		if g := gold[p.A]; g >= 0 && g == gold[p.B] {
			tp++
		}
	}
	count := make(map[int32]int, len(gold)/4)
	for _, g := range gold {
		if g >= 0 {
			count[g]++
		}
	}
	truth := 0
	for _, k := range count {
		truth += k * (k - 1) / 2
	}
	return prf(tp, predicted.Len(), truth)
}

// prf is the PRF of tp true positives among predicted matches, against
// truth true pairs.
func prf(tp, predicted, truth int) PRF {
	out := PRF{TP: tp, FP: predicted - tp, FN: truth - tp}
	if predicted == 0 {
		out.Precision = 1
	} else {
		out.Precision = float64(tp) / float64(predicted)
	}
	if truth == 0 {
		out.Recall = 1
	} else {
		out.Recall = float64(tp) / float64(truth)
	}
	if out.Precision+out.Recall > 0 {
		out.F1 = 2 * out.Precision * out.Recall / (out.Precision + out.Recall)
	}
	return out
}

func (m PRF) String() string {
	return fmt.Sprintf("P=%.3f R=%.3f F1=%.3f (tp=%d fp=%d fn=%d)",
		m.Precision, m.Recall, m.F1, m.TP, m.FP, m.FN)
}

// Soundness is the fraction of scheme matches also present in the
// reference run (§2.2.1, property 1): |M ∩ ref| / |M|. Empty M is
// vacuously sound (1).
func Soundness(scheme, reference core.PairSet) float64 {
	if scheme.Len() == 0 {
		return 1
	}
	return float64(scheme.Intersect(reference).Len()) / float64(scheme.Len())
}

// Completeness is the fraction of reference matches recovered by the
// scheme (§2.2.1, property 2): |M ∩ ref| / |ref|. Empty reference is
// vacuously complete (1).
func Completeness(scheme, reference core.PairSet) float64 {
	if reference.Len() == 0 {
		return 1
	}
	return float64(scheme.Intersect(reference).Len()) / float64(reference.Len())
}

// Report is one evaluated scheme run, as printed by the experiment
// harness.
type Report struct {
	Scheme       string
	PRF          PRF
	Soundness    float64 // vs reference run, NaN-free: 1 when not applicable
	Completeness float64
	Stats        core.RunStats
}

// Evaluate builds a Report for a run against ground truth and an optional
// reference run (pass nil reference to skip soundness/completeness).
func Evaluate(res *core.Result, truth core.PairSet, reference core.PairSet) Report {
	return report(res, PrecisionRecall(res.Matches, truth), reference)
}

// EvaluateLabels is Evaluate against the truth gold labels define
// (PrecisionRecallLabels).
func EvaluateLabels(res *core.Result, gold []int32, reference core.PairSet) Report {
	return report(res, PrecisionRecallLabels(res.Matches, gold), reference)
}

func report(res *core.Result, m PRF, reference core.PairSet) Report {
	r := Report{Scheme: res.Scheme, PRF: m, Soundness: 1, Completeness: 1, Stats: res.Stats}
	if reference != nil {
		r.Soundness = Soundness(res.Matches, reference)
		r.Completeness = Completeness(res.Matches, reference)
	}
	return r
}

func (r Report) String() string {
	return fmt.Sprintf("%-6s %s sound=%.3f complete=%.3f", r.Scheme, r.PRF, r.Soundness, r.Completeness)
}
