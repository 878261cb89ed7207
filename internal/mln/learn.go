package mln

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/similarity"
)

// The paper learns its rule weights with Alchemy from labeled training
// data (Appendix B: "we used the Alchemy system to learn the weights of
// the rules using training data"). Alchemy is closed-world C++ software;
// this file substitutes a structured (averaged) perceptron over the same
// four features — the per-level match counts and the coauthor-rule
// grounding count — trained on neighborhoods of a labeled corpus. The
// learned weights drop into the same ground model.

// LearnConfig controls weight learning.
type LearnConfig struct {
	// Epochs over the training neighborhoods.
	Epochs int
	// Rate is the perceptron step size.
	Rate float64
	// Seed shuffles the neighborhood order between epochs.
	Seed int64
}

// DefaultLearnConfig returns a configuration that converges on the
// generated corpora.
func DefaultLearnConfig() LearnConfig {
	return LearnConfig{Epochs: 8, Rate: 0.5, Seed: 1}
}

// features are the sufficient statistics of an assignment: counts of
// matched pairs per similarity level and the number of fired coauthor
// groundings.
type features struct {
	sim  [4]float64 // indexed by level 1..3; slot 0 unused
	coau float64
}

func (f *features) sub(g features) features {
	out := features{coau: f.coau - g.coau}
	for i := range f.sim {
		out.sim[i] = f.sim[i] - g.sim[i]
	}
	return out
}

func (f *features) norm1() float64 {
	t := abs(f.coau)
	for _, v := range f.sim {
		t += abs(v)
	}
	return t
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// featureCounts computes the statistics of match set s restricted to the
// given candidate ids (in-scope pairs). Pairwise groundings are counted
// once per unordered pair of match variables; reflexive groundings count
// per pair.
func (m *Matcher) featureCounts(ids []int32, s core.PairSet) features {
	var f features
	for _, id := range ids {
		p := m.table.Pair(id)
		if !s.Has(p) {
			continue
		}
		f.sim[m.level[id]]++
		f.coau += float64(2 * m.sup.Shared(id))
		for _, e := range m.sup.Of(id) {
			if e.ID > id && s.Has(m.table.Pair(e.ID)) {
				f.coau += float64(2 * e.N)
			}
		}
	}
	return f
}

// Learn runs the structured perceptron: for every training neighborhood,
// predict the MAP match set under the current weights, compare its
// features with the gold features (ground truth restricted to in-scope
// candidates), and update. Weights are averaged across all updates
// (averaged perceptron) for stability, and the coauthor weight is clamped
// non-negative so the learned matcher stays supermodular.
func Learn(m *Matcher, cover *core.Cover, truth core.PairSet, cfg LearnConfig) (Weights, error) {
	if cfg.Epochs <= 0 {
		return Weights{}, fmt.Errorf("mln: Epochs = %d, want > 0", cfg.Epochs)
	}
	if cfg.Rate <= 0 {
		return Weights{}, fmt.Errorf("mln: Rate = %v, want > 0", cfg.Rate)
	}
	saved := m.w
	defer func() {
		m.w = saved
		m.applyWeights()
	}()

	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int, cover.Len())
	for i := range order {
		order[i] = i
	}
	w := m.w
	var sum Weights
	var ids []int32
	samples := 0

	accumulate := func() {
		sum.Sim1 += w.Sim1
		sum.Sim2 += w.Sim2
		sum.Sim3 += w.Sim3
		sum.Coauthor += w.Coauthor
		samples++
	}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, ni := range order {
			ids = m.table.AppendScopeIDs(ids[:0], cover.Sets[ni])
			if len(ids) == 0 {
				continue
			}
			gold := core.NewPairSet()
			for _, id := range ids {
				if truth.Has(m.table.Pair(id)) {
					gold.Add(m.table.Pair(id))
				}
			}
			m.w = w
			m.applyWeights()
			// Predicted afresh: the memo holds verdicts of other weights.
			ws := m.getWS()
			_, _, out := m.solveFresh(cover, int32(ni), nil, nil, ws)
			pred := core.NewPairSet()
			for _, id := range out {
				pred.Add(m.table.Pair(id))
			}
			m.putWS(ws)

			gf := m.featureCounts(ids, gold)
			pf := m.featureCounts(ids, pred)
			delta := gf.sub(pf)
			if delta.norm1() > 0 {
				w.Sim1 += cfg.Rate * delta.sim[similarity.LevelWeak]
				w.Sim2 += cfg.Rate * delta.sim[similarity.LevelMedium]
				w.Sim3 += cfg.Rate * delta.sim[similarity.LevelStrong]
				w.Coauthor += cfg.Rate * delta.coau
				if w.Coauthor < 0 {
					w.Coauthor = 0 // keep the model supermodular
				}
			}
			accumulate()
		}
	}
	if samples == 0 {
		return Weights{}, fmt.Errorf("mln: no training neighborhoods with candidates")
	}
	out := Weights{
		Sim1:     sum.Sim1 / float64(samples),
		Sim2:     sum.Sim2 / float64(samples),
		Sim3:     sum.Sim3 / float64(samples),
		Coauthor: sum.Coauthor / float64(samples),
		TieEps:   saved.TieEps,
	}
	if out.Coauthor < 0 {
		out.Coauthor = 0
	}
	return out, nil
}
