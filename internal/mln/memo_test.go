package mln

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/bib"
	"repro/internal/canopy"
	"repro/internal/core"
	"repro/internal/datagen"
	emnet "repro/internal/net"
)

// memoEnv holds two matchers over the same grounding: memo with the
// verdict memo on (the default), ref with it off — the naive reference
// every differential check below compares against.
type memoEnv struct {
	d     *bib.Dataset
	cover *core.Cover
	memo  *Matcher
	ref   *Matcher
}

func memoGround(t testing.TB, seed int64) memoEnv {
	return memoGroundAt(t, 0.08, seed)
}

// memoGroundAt is memoGround on a HEPTH-like corpus of the given scale.
func memoGroundAt(t testing.TB, scale float64, seed int64) memoEnv {
	t.Helper()
	d := datagen.MustGenerate(datagen.HEPTHLike(scale, seed))
	cover := canopy.BuildCover(d, canopy.DefaultConfig())
	sp := canopy.CandidatePairs(d, cover)
	cands := make([]Candidate, len(sp))
	for i, s := range sp {
		cands[i] = Candidate{Pair: s.Pair, Level: s.Level}
	}
	memo, err := New(d, cands, PaperWeights())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(d, cands, PaperWeights())
	if err != nil {
		t.Fatal(err)
	}
	ref.SetMemoization(false)
	memo.PrepareCover(cover)
	ref.PrepareCover(cover)
	return memoEnv{d, cover, memo, ref}
}

// matchNB is MatchIDs — the form the engine calls, and the one the memo
// answers on a neighborhood of the prepared cover — with the evidence and
// the match set as PairSets.
func matchNB(m *Matcher, c *core.Cover, nb int, pos, neg core.PairSet) core.PairSet {
	t := m.CandidateTable()
	out := core.NewPairSet()
	for _, id := range m.MatchIDs(c, int32(nb), core.EvidenceOf(t, pos), core.EvidenceOf(t, neg)) {
		out.Add(t.Pair(id))
	}
	return out
}

// checkNeighborhood compares the memoized and unmemoized verdicts of
// neighborhood nb under one evidence state: MatchIDs output,
// MaximalMessages output and probe count, and the global LogScore of the
// match set.
func checkNeighborhood(t *testing.T, env memoEnv, nb int, pos, neg core.PairSet) {
	t.Helper()
	entities := env.cover.Sets[nb]
	gotM := matchNB(env.memo, env.cover, nb, pos, neg)
	wantM := matchNB(env.ref, env.cover, nb, pos, neg)
	if !gotM.Equal(wantM) {
		t.Fatalf("memoized Match diverged: %d pairs vs %d", gotM.Len(), wantM.Len())
	}
	gotMsgs, gotCalls := env.memo.MaximalMessages(entities, pos, neg, gotM)
	wantMsgs, wantCalls := env.ref.MaximalMessages(entities, pos, neg, wantM)
	if gotCalls != wantCalls {
		t.Fatalf("memoized MaximalMessages calls = %d, want %d", gotCalls, wantCalls)
	}
	if len(gotMsgs) != len(wantMsgs) {
		t.Fatalf("memoized MaximalMessages count = %d, want %d", len(gotMsgs), len(wantMsgs))
	}
	for i := range gotMsgs {
		if !slices.Equal(gotMsgs[i], wantMsgs[i]) {
			t.Fatalf("memoized maximal message %d diverged", i)
		}
	}
	// PairSet iteration order randomizes the summation order, so LogScore
	// carries last-ulp noise between matcher instances (same tolerance as
	// FuzzDenseLogScore) — memoization itself never touches LogScore.
	if got, want := env.memo.LogScore(gotM), env.ref.LogScore(wantM); math.Abs(got-want) > 1e-6 {
		t.Fatalf("memoized LogScore = %v, want %v", got, want)
	}
}

// TestMemoDifferentialGrowth grows evidence at random and checks every
// neighborhood's memoized verdicts stay byte-identical to the unmemoized
// reference at every step — including repeat visits under unchanged
// evidence (hits), visits after in-scope evidence grew (invalidations),
// and first visits (misses). All three counter classes must actually
// fire, or the test is not exercising the memo.
func TestMemoDifferentialGrowth(t *testing.T) {
	env := memoGround(t, 21)
	rng := rand.New(rand.NewSource(21))
	pos, neg := core.NewPairSet(), core.NewPairSet()
	for _, p := range env.memo.Pairs() {
		if rng.Float64() < 0.02 {
			neg.Add(p)
		}
	}
	for step := 0; step < 4; step++ {
		for id := range env.cover.Sets {
			// Two consecutive evaluations per neighborhood: the second runs
			// against unchanged evidence, so it must be served from cache
			// without changing the answer.
			checkNeighborhood(t, env, id, pos, neg)
			checkNeighborhood(t, env, id, pos, neg)
		}
		// Grow the evidence the way SMP does: adopt some of the model's
		// own matches, plus a few arbitrary candidates.
		full := env.ref.Match(env.cover.Sets[0], pos, neg)
		for k := range full {
			if rng.Float64() < 0.5 {
				pos.AddKey(k)
			}
		}
		for _, p := range env.memo.Pairs() {
			if rng.Float64() < 0.01 && !neg.Has(p) {
				pos.Add(p)
			}
		}
	}
	st := env.memo.CacheStats()
	if st.Hits == 0 || st.Misses == 0 || st.Invalidations == 0 {
		t.Fatalf("differential run left a counter class untouched: %+v", st)
	}
	if ref := env.ref.CacheStats(); ref.Lookups() != 0 {
		t.Fatalf("reference matcher consulted the memo: %+v", ref)
	}
}

// TestMemoWays drives one scope's ways through every store path — a new
// way, the way already holding the read set, a way emptied by SetWeights,
// and the least recently used way, whose slices are recycled — and checks
// the lookups each leaves behind.
func TestMemoWays(t *testing.T) {
	m := &Matcher{}
	p := &prepared{skel: make([]scope, 1)}
	m.prep.Store(p)
	sc := &p.skel[0]
	e := &sc.memo
	key := func(i int) []uint8 { return []uint8{stFilled, stFilled | uint8(i)} }
	hit := func(i int) bool {
		got, ok := m.memoLookup(sc, key(i))
		if ok && !slices.Equal(got, []int32{int32(i)}) {
			t.Fatalf("way of key %d holds match %v", i, got)
		}
		return ok
	}
	want := func(hits, misses, invals int64) {
		t.Helper()
		if st := m.CacheStats(); st != (core.CacheReport{Hits: hits, Misses: misses, Invalidations: invals}) {
			t.Fatalf("counters = %+v, want %d/%d/%d", st, hits, misses, invals)
		}
	}

	if hit(1) {
		t.Fatal("hit on a scope that never stored")
	}
	for i := 1; i <= memoWays; i++ {
		m.memoStore(sc, key(i), []int32{int32(i)})
		if n := len(e.ways); n != i {
			t.Fatalf("%d stores left %d ways", i, n)
		}
	}
	want(0, 1, 0)
	if !hit(2) || hit(9) {
		t.Fatal("lookups over four full ways")
	}
	want(1, 1, 1)
	m.memoStore(sc, key(1), []int32{1}) // the way holding key 1
	if !slices.Equal(e.ways[0].states, key(1)) || !slices.Equal(e.ways[1].states, key(2)) {
		t.Fatalf("a store of a held key overwrote another way: %+v", e.ways)
	}

	// Key 3 is now the least recently used: 4 was stored after it, and 2
	// and 1 were used since.
	victim := &e.ways[2]
	backing := &victim.states[0]
	m.memoStore(sc, key(5), []int32{5})
	if len(e.ways) != memoWays || !slices.Equal(victim.states, key(5)) || &victim.states[0] != backing {
		t.Fatalf("eviction did not recycle the least recently used way: %+v", e.ways)
	}
	if hit(3) || !hit(5) || !hit(4) || !hit(1) || !hit(2) {
		t.Fatal("lookups after evicting key 3")
	}

	// SetWeights empties every way; the next store reuses one.
	m.invalidateMemos()
	want(5, 1, 2+memoWays)
	if hit(5) {
		t.Fatal("hit after invalidation")
	}
	m.memoStore(sc, key(6), []int32{6})
	if len(e.ways) != memoWays || !hit(6) {
		t.Fatalf("store after invalidation grew the ways or missed: %d ways", len(e.ways))
	}
	want(6, 2, 2+memoWays)
}

// memoWayStates copies the key of every valid way of every
// prepared scope, by scope and way index.
func memoWayStates(m *Matcher) [][]string {
	p := m.prep.Load()
	out := make([][]string, len(p.skel))
	for i := range p.skel {
		for _, w := range p.skel[i].memo.ways {
			s := ""
			if w.used != 0 {
				s = string(w.states)
			}
			out[i] = append(out[i], s)
		}
	}
	return out
}

// TestMemoAcrossRuns runs one experiment's scheme sequence — NO-MP, SMP,
// MMP, sharded K=2, then NO-MP and SMP under V− evidence — on a memo-on
// matcher and a memo-off one. Every run's matches and RunStats (but Cache
// and the clocks) must be identical; MMP must leave the memo alone; the
// sharded run must be served from the ways the earlier ones filled; and
// both paths a store can take past the first way — a new way and an
// eviction — must fire.
func TestMemoAcrossRuns(t *testing.T) {
	env := memoGroundAt(t, 0.4, 2001)
	negative := core.NewPairSet()
	for i, p := range env.memo.Pairs() {
		if i%5 == 0 {
			negative.Add(p)
		}
	}
	runs := []struct {
		name string
		neg  core.PairSet
		run  func(cfg core.Config) (*core.Result, error)
	}{
		{"nomp", nil, func(cfg core.Config) (*core.Result, error) { return core.NoMP(context.Background(), cfg) }},
		{"smp", nil, func(cfg core.Config) (*core.Result, error) { return core.SMP(context.Background(), cfg) }},
		{"mmp", nil, func(cfg core.Config) (*core.Result, error) { return core.MMP(context.Background(), cfg) }},
		{"sharded", nil, func(cfg core.Config) (*core.Result, error) {
			return core.RunBackend(context.Background(), cfg, "SMP", &emnet.Backend{Workers: 2})
		}},
		{"nomp-neg", negative, func(cfg core.Config) (*core.Result, error) { return core.NoMP(context.Background(), cfg) }},
		{"smp-neg", negative, func(cfg core.Config) (*core.Result, error) { return core.SMP(context.Background(), cfg) }},
	}
	grew, evicted := false, false
	prev := memoWayStates(env.memo)
	for _, r := range runs {
		var res [2]*core.Result
		for i, m := range []*Matcher{env.memo, env.ref} {
			var err error
			cfg := core.Config{Cover: env.cover, Matcher: m, Relation: env.d.Coauthor(), Negative: r.neg}
			if res[i], err = r.run(cfg); err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
		}
		if !res[0].Matches.Equal(res[1].Matches) {
			t.Fatalf("%s: memoized matches diverged", r.name)
		}
		got, want := res[0].Stats, res[1].Stats
		for _, st := range []*core.RunStats{&got, &want} {
			st.Cache, st.Elapsed, st.MatcherTime = core.CacheReport{}, 0, 0
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: memoized RunStats %+v, want %+v", r.name, got, want)
		}
		t.Logf("%s: %v calls=%d evals=%d", r.name, res[0].Stats.Cache, res[0].Stats.MatcherCalls, res[0].Stats.Evaluations)
		switch c := res[0].Stats.Cache; r.name {
		case "mmp":
			if c.Lookups() != 0 {
				t.Errorf("MMP consulted the memo: %v", c)
			}
		case "sharded":
			if rate := c.HitRate(); rate < 0.9 {
				t.Errorf("sharded hit rate %.3f < 0.9 (%v)", rate, c)
			}
		}
		cur := memoWayStates(env.memo)
		for i := range cur {
			grew = grew || len(cur[i]) > max(len(prev[i]), 1)
			for j := range min(len(prev[i]), len(cur[i])) {
				evicted = evicted || prev[i][j] != "" && prev[i][j] != cur[i][j]
			}
		}
		prev = cur
	}
	if !grew || !evicted {
		t.Fatalf("store paths left unexercised: new way %v, eviction %v", grew, evicted)
	}
}

// TestMemoConcurrentMatch evaluates one neighborhood from several
// goroutines at once under more evidence states than it has ways, so
// lookups, stores and evictions on one scope interleave: every verdict
// must equal the memo-off reference's.
func TestMemoConcurrentMatch(t *testing.T) {
	env := memoGround(t, 17)
	nb := largestNeighborhood(env.cover)
	entities := env.cover.Sets[nb]
	evidence := []core.PairSet{core.NewPairSet()}
	for _, p := range env.memo.Candidates(entities)[:memoWays] {
		evidence = append(evidence, core.NewPairSet(p))
	}
	want := make([]core.PairSet, len(evidence))
	for i, pos := range evidence {
		want[i] = env.ref.Match(entities, pos, nil)
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 100 {
				k := (g + i/3) % len(evidence)
				if got := matchNB(env.memo, env.cover, nb, evidence[k], nil); !got.Equal(want[k]) {
					t.Errorf("goroutine %d, call %d: memoized Match diverged under evidence state %d", g, i, k)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := env.memo.CacheStats(); st.Hits == 0 || st.Invalidations == 0 {
		t.Fatalf("concurrent calls left hits or invalidations untouched: %+v", st)
	}
}

// TestMemoScopedToPreparedCover pins where memoization applies: only
// MatchIDs on a neighborhood of the prepared cover. Entity slices — a
// cover set among them — and the neighborhoods of any other cover take
// the ephemeral path and must never touch the counters.
func TestMemoScopedToPreparedCover(t *testing.T) {
	env := memoGround(t, 5)
	sub := slices.Clone(env.cover.Sets[0])
	sub = sub[:len(sub)-1] // not a cover set → ephemeral scope
	other := &core.Cover{NumEntities: env.cover.NumEntities, Sets: slices.Clone(env.cover.Sets)}
	before := env.memo.CacheStats()
	got := env.memo.Match(sub, nil, nil)
	want := env.ref.Match(sub, nil, nil)
	if !got.Equal(want) {
		t.Fatalf("ephemeral Match diverged")
	}
	if got, want := env.memo.Match(env.cover.Sets[0], nil, nil), matchNB(env.ref, env.cover, 0, nil, nil); !got.Equal(want) {
		t.Fatalf("Match of a cover set diverged")
	}
	if got, want := matchNB(env.memo, other, 0, nil, nil), matchNB(env.ref, env.cover, 0, nil, nil); !got.Equal(want) {
		t.Fatalf("MatchIDs on another cover diverged")
	}
	if after := env.memo.CacheStats(); after != before {
		t.Fatalf("ephemeral evaluation touched the memo: %+v -> %+v", before, after)
	}
}

// TestSetWeightsInvalidatesMemo: re-weighting changes verdicts but not
// skeletons, so it must drop every cached verdict — and the next
// evaluation must agree with an unmemoized matcher under the new weights.
func TestSetWeightsInvalidatesMemo(t *testing.T) {
	env := memoGround(t, 9)
	matchNB(env.memo, env.cover, 0, nil, nil)
	matchNB(env.memo, env.cover, 0, nil, nil) // populate + hit
	if st := env.memo.CacheStats(); st.Hits == 0 {
		t.Fatalf("no hit before re-weighting: %+v", st)
	}
	w := PaperWeights()
	w.Sim1 *= 2
	before := env.memo.CacheStats()
	if err := env.memo.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	if err := env.ref.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	if after := env.memo.CacheStats(); after.Invalidations <= before.Invalidations {
		t.Fatalf("SetWeights dropped no cached verdicts: %+v -> %+v", before, after)
	}
	checkNeighborhood(t, env, 0, nil, nil)
}

// TestScopeForRejectsRecycledBackingArray is the regression test for a
// skeleton-aliasing bug of slice-address keying: an entity slice rebuilt
// in place over a cover set's backing array — same pointer, same length,
// different entities — must be answered for its new contents, exactly as
// an unprepared matcher answers.
func TestScopeForRejectsRecycledBackingArray(t *testing.T) {
	env := memoGround(t, 13)
	a, b := -1, -1
	for i := 0; i < len(env.cover.Sets) && a < 0; i++ {
		for j := i + 1; j < len(env.cover.Sets); j++ {
			if len(env.cover.Sets[i]) == len(env.cover.Sets[j]) &&
				!slices.Equal(env.cover.Sets[i], env.cover.Sets[j]) {
				a, b = i, j
				break
			}
		}
	}
	if a < 0 {
		t.Skip("cover has no two equal-length distinct sets")
	}
	set := env.cover.Sets[a]
	wantCands := env.memo.Candidates(slices.Clone(env.cover.Sets[b]))
	wantMatch := env.ref.Match(slices.Clone(env.cover.Sets[b]), nil, nil)

	copy(set, env.cover.Sets[b]) // recycle the backing array in place

	gotCands := env.memo.Candidates(set)
	if !slices.Equal(sortedPairs(gotCands), sortedPairs(wantCands)) {
		t.Fatalf("recycled backing array reused a stale skeleton: %d candidates, want %d",
			len(gotCands), len(wantCands))
	}
	if got := env.memo.Match(set, nil, nil); !got.Equal(wantMatch) {
		t.Fatalf("recycled backing array: Match = %d pairs, want %d", got.Len(), wantMatch.Len())
	}
}

func sortedPairs(ps []core.Pair) []core.PairKey {
	out := make([]core.PairKey, len(ps))
	for i, p := range ps {
		out[i] = p.Key()
	}
	slices.Sort(out)
	return out
}

// fuzzMemoEnv shares one memo/reference matcher pair across fuzz
// iterations; both matchers are safe for concurrent Match calls.
var fuzzMemoEnv = sync.OnceValue(func() *memoEnv {
	d := datagen.MustGenerate(datagen.DBLPLike(0.1, 7))
	cover := canopy.BuildCover(d, canopy.DefaultConfig())
	sp := canopy.CandidatePairs(d, cover)
	cands := make([]Candidate, len(sp))
	for i, s := range sp {
		cands[i] = Candidate{Pair: s.Pair, Level: s.Level}
	}
	memo, err := New(d, cands, PaperWeights())
	if err != nil {
		panic(err)
	}
	ref, err := New(d, cands, PaperWeights())
	if err != nil {
		panic(err)
	}
	ref.SetMemoization(false)
	memo.PrepareCover(cover)
	ref.PrepareCover(cover)
	return &memoEnv{d, cover, memo, ref}
})

// FuzzMemoDifferential drives arbitrary evidence sequences against both
// matchers: whatever pairs the bytes select as V+/V−, the memoized
// MatchIDs and MaximalMessages verdicts of every visited neighborhood must
// equal the unmemoized ones. Each neighborhood is visited twice per
// evidence state so cache hits (not just misses) are what is compared.
func FuzzMemoDifferential(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2}, []byte{0, 9}, uint8(3))
	f.Add([]byte{7, 7, 1, 200}, []byte{}, uint8(0))
	f.Add([]byte{}, []byte{3, 3, 3, 3}, uint8(250))
	f.Fuzz(func(t *testing.T, posBytes, negBytes []byte, nbr uint8) {
		env := fuzzMemoEnv()
		pos, neg := core.NewPairSet(), core.NewPairSet()
		for _, p := range pickPairs(env.memo, negBytes) {
			neg.Add(p)
		}
		id := int(nbr) % env.cover.Len()
		entities := env.cover.Sets[id]
		grow := pickPairs(env.memo, posBytes)
		for step := 0; ; step++ {
			for range 2 { // second visit: unchanged evidence, hit path
				gotM := matchNB(env.memo, env.cover, id, pos, neg)
				wantM := matchNB(env.ref, env.cover, id, pos, neg)
				if !gotM.Equal(wantM) {
					t.Fatalf("step %d: memoized Match diverged", step)
				}
				gotMsgs, gotCalls := env.memo.MaximalMessages(entities, pos, neg, gotM)
				wantMsgs, wantCalls := env.ref.MaximalMessages(entities, pos, neg, wantM)
				if gotCalls != wantCalls || len(gotMsgs) != len(wantMsgs) {
					t.Fatalf("step %d: memoized MaximalMessages diverged (%d/%d calls, %d/%d msgs)",
						step, gotCalls, wantCalls, len(gotMsgs), len(wantMsgs))
				}
				for i := range gotMsgs {
					if !slices.Equal(gotMsgs[i], wantMsgs[i]) {
						t.Fatalf("step %d: maximal message %d diverged", step, i)
					}
				}
			}
			if len(grow) == 0 {
				break
			}
			if !neg.Has(grow[0]) {
				pos.Add(grow[0])
			}
			grow = grow[1:]
		}
	})
}
