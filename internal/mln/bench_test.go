package mln

import (
	"testing"

	"repro/internal/bib"
	"repro/internal/canopy"
	"repro/internal/core"
	"repro/internal/datagen"
)

type benchEnv struct {
	d     *bib.Dataset
	cover *core.Cover
}

// benchGround builds the HEPTH-like 0.25 corpus the scheme benchmarks
// use and returns its grounding inputs.
func benchGround(b testing.TB) (env benchEnv, cands []Candidate) {
	return benchGroundAt(b, 0.25)
}

// benchGroundAt is benchGround at another HEPTH-like scale.
func benchGroundAt(b testing.TB, scale float64) (env benchEnv, cands []Candidate) {
	b.Helper()
	ds := datagen.MustGenerate(datagen.HEPTHLike(scale, 42))
	cover := canopy.BuildCover(ds, canopy.DefaultConfig())
	sp := canopy.CandidatePairs(ds, cover)
	cands = make([]Candidate, len(sp))
	for i, s := range sp {
		cands[i] = Candidate{Pair: s.Pair, Level: s.Level}
	}
	return benchEnv{ds, cover}, cands
}

// BenchmarkNew measures grounding the MLN — the O(deg²) coauthor loop
// dominates; the scratch-slice merge keeps it allocation-light.
func BenchmarkNew(b *testing.B) {
	env, cands := benchGround(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(env.d, cands, PaperWeights()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatchWarm measures one MatchIDs call on a fixed warm
// neighborhood after PrepareCover, as the engine makes it: the per-call
// cost SMP/MMP multiply by Evaluations × rounds.
func BenchmarkMatchWarm(b *testing.B) {
	m, c, nb := benchPrepared(b)
	pos := core.NewEvidence(m.CandidateTable())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatchIDs(c, nb, pos, nil)
	}
}

func largestNeighborhood(c *core.Cover) int {
	best := 0
	for i, s := range c.Sets {
		if len(s) > len(c.Sets[best]) {
			best = i
		}
	}
	return best
}

// benchPrepared grounds the HEPTH corpus, prepares the cover, and
// returns the matcher with the cover and the number of its largest
// neighborhood — the shared setup of the warm-match benchmarks.
func benchPrepared(b *testing.B) (*Matcher, *core.Cover, int32) {
	return benchPreparedAt(b, 0.25)
}

// benchPreparedAt is benchPrepared at another HEPTH-like scale.
func benchPreparedAt(b *testing.B, scale float64) (*Matcher, *core.Cover, int32) {
	b.Helper()
	env, cands := benchGroundAt(b, scale)
	m, err := New(env.d, cands, PaperWeights())
	if err != nil {
		b.Fatal(err)
	}
	m.PrepareCover(env.cover)
	return m, env.cover, int32(largestNeighborhood(env.cover))
}

// BenchmarkMemoHit measures the steady-state memo hit: read the read
// set, byte-compare, materialize the cached verdict. This is what a
// re-activated neighborhood with unchanged relevant evidence costs in
// place of a full MAP solve (BenchmarkMemoMiss).
func BenchmarkMemoHit(b *testing.B) {
	m, c, nb := benchPrepared(b)
	pos := core.NewEvidence(m.CandidateTable())
	m.MatchIDs(c, nb, pos, nil) // populate
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatchIDs(c, nb, pos, nil)
	}
	b.StopTimer()
	if st := m.CacheStats(); st.Hits < int64(b.N) {
		b.Fatalf("hit benchmark missed: %+v over %d iterations", st, b.N)
	}
}

// BenchmarkMemoMiss measures the worst case for the memo: the relevant
// evidence cycles through one state more than a scope has ways, so the
// least recently used way is always the one needed next and every lookup
// invalidates, resolves from scratch and re-stores. The delta against
// BenchmarkMatchWarm at the pre-memo baseline is the layer's overhead on
// never-hitting workloads.
func BenchmarkMemoMiss(b *testing.B) {
	m, c, nb := benchPrepared(b)
	evidence := []*core.Evidence{core.NewEvidence(m.CandidateTable())}
	for _, id := range m.table.AppendScopeIDs(nil, c.Sets[nb])[:memoWays] {
		e := core.NewEvidence(m.CandidateTable())
		e.AddID(id)
		evidence = append(evidence, e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatchIDs(c, nb, evidence[i%len(evidence)], nil)
	}
	b.StopTimer()
	if st := m.CacheStats(); st.Hits > 1 {
		b.Fatalf("miss benchmark hit the cache: %+v", st)
	}
}
