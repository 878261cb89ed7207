package mln

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/maxflow"
)

// bruteMAP enumerates all assignments.
func bruteMAP(unary []float64, edges []Edge) ([]bool, float64) {
	n := len(unary)
	bestScore := math.Inf(-1)
	bestMask := 0
	for mask := 0; mask < 1<<n; mask++ {
		score := 0.0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				score += unary[i]
			}
		}
		for _, e := range edges {
			if mask&(1<<e.I) != 0 && mask&(1<<e.J) != 0 {
				score += e.W
			}
		}
		if score > bestScore {
			bestScore, bestMask = score, mask
		}
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = bestMask&(1<<i) != 0
	}
	return out, bestScore
}

func TestSolveMAPEmpty(t *testing.T) {
	if got := SolveMAP(nil, nil); got != nil {
		t.Errorf("empty problem = %v", got)
	}
}

func TestSolveMAPUnaryOnly(t *testing.T) {
	x := SolveMAP([]float64{1, -1, 0.5, -0.5}, nil)
	want := []bool{true, false, true, false}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestSolveMAPChainExample(t *testing.T) {
	// The paper's 3-chain: three pairs at −5 with two +8 interactions.
	// Alone each is negative; together they are +1.
	unary := []float64{-5, -5, -5}
	edges := []Edge{{0, 1, 8}, {1, 2, 8}}
	x := SolveMAP(unary, edges)
	for i, v := range x {
		if !v {
			t.Fatalf("x[%d] = false; the chain must be matched collectively", i)
		}
	}
	// Break the chain: with only one interaction the optimum is empty.
	x = SolveMAP(unary, edges[:1])
	for i, v := range x {
		if v {
			t.Fatalf("x[%d] = true; -10+8 must not match", i)
		}
	}
}

func TestSolveMAPAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(10)
		unary := make([]float64, n)
		for i := range unary {
			unary[i] = (rng.Float64() - 0.7) * 10 // mostly negative
			if rng.Intn(5) == 0 {
				unary[i] = 0 // exercise ties
			}
		}
		var edges []Edge
		for e := rng.Intn(2 * n); e > 0; e-- {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			edges = append(edges, Edge{i, j, rng.Float64() * 8})
		}
		x := SolveMAP(unary, edges)
		_, wantScore := bruteMAP(unary, edges)
		gotScore := ScoreAssignment(unary, edges, x)
		if math.Abs(gotScore-wantScore) > 1e-6 {
			t.Fatalf("trial %d: SolveMAP score %v != brute %v (unary=%v edges=%v)",
				trial, gotScore, wantScore, unary, edges)
		}
	}
}

func TestSolveMAPTieBreakWithEps(t *testing.T) {
	// A zero-weight variable is a tie; with an inclusion bonus it must be
	// matched (the "largest most-likely set" of Definition 5).
	const eps = 1e-9
	x := SolveMAP([]float64{0 + eps}, nil)
	if !x[0] {
		t.Error("eps-boosted zero variable must be included")
	}
}

func TestScoreAssignment(t *testing.T) {
	unary := []float64{1, 2}
	edges := []Edge{{0, 1, 4}}
	if got := ScoreAssignment(unary, edges, []bool{true, true}); got != 7 {
		t.Errorf("score = %v, want 7", got)
	}
	if got := ScoreAssignment(unary, edges, []bool{true, false}); got != 1 {
		t.Errorf("score = %v, want 1", got)
	}
	if got := ScoreAssignment(unary, edges, []bool{false, false}); got != 0 {
		t.Errorf("score = %v, want 0", got)
	}
}

// boundaryValues are the unaries and weights where pairMAP's comparisons
// against maxflow.Eps and its saturating subtraction can go either way:
// zero of both signs, Eps and its float neighbours, ties, the paper's
// weights with and without the tie bonus, and the probe clamp.
func boundaryValues() []float64 {
	eps := maxflow.Eps
	vs := []float64{
		0, math.Copysign(0, -1), eps, 2 * eps, eps / 2,
		math.Nextafter(eps, 0), math.Nextafter(eps, 1), 1, 0.5,
		2.28, 3.84, 12.75, 2.46, 4.92, 9.84, 1e-9, 2.28 - 1e-9, 3.84 - 1e-9, 12.75 + 1e-9,
		clampWeight, clampWeight + 4.92,
	}
	for _, v := range slices.Clone(vs) {
		vs = append(vs, -v)
	}
	return vs
}

// checkPairMAP holds pairMAP to solveMAPInto on the two-variable network,
// with the edge in both orientations.
func checkPairMAP(t *testing.T, up, uq, w float64) {
	t.Helper()
	xp, xq := pairMAP(up, uq, w)
	for _, e := range []Edge{{0, 1, w}, {1, 0, w}} {
		want := make([]bool, 2)
		solveMAPInto([]float64{up, uq}, []Edge{e}, want)
		if xp != want[0] || xq != want[1] {
			t.Fatalf("pairMAP(%v, %v, %v) = %v, %v; Dinic on edge %v = %v", up, uq, w, xp, xq, e, want)
		}
	}
}

// TestPairMAPMatchesDinic runs every triple of boundary values, the
// near-cancellations u + w/2 ≈ 0 and u_q = −u_p, and random models.
func TestPairMAPMatchesDinic(t *testing.T) {
	vs := boundaryValues()
	for _, up := range vs {
		for _, uq := range vs {
			for _, w := range vs {
				checkPairMAP(t, up, uq, w)
			}
			checkPairMAP(t, up, -up, math.Abs(uq))
			for _, d := range []float64{0, maxflow.Eps, -maxflow.Eps, 1e-15} {
				checkPairMAP(t, up, uq, -2*up+d) // −u_p − w/2 ≈ 0
			}
		}
	}
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 20000; i++ {
		up, uq := (rng.Float64()-0.6)*20, (rng.Float64()-0.6)*20
		w := rng.Float64() * 10
		if i%3 == 0 {
			w = -2*up + vs[rng.Intn(len(vs))]*1e-3
		}
		checkPairMAP(t, up, uq, w)
	}
}

// FuzzPairMAP: pairMAP is Dinic's answer on the two-variable network to
// the bit, for every finite unary pair and weight.
func FuzzPairMAP(f *testing.F) {
	vs := boundaryValues()
	for i, v := range vs {
		f.Add(v, vs[(i+7)%len(vs)], vs[(i+3)%len(vs)])
		f.Add(v, -v, 4.92)
		f.Add(clampWeight, v, 4.92)
	}
	f.Add(-2.28+1e-9, -2.28+1e-9, 4.92)
	f.Add(-3.84+1e-9, 12.75+1e-9, 9.84)
	f.Fuzz(func(t *testing.T, up, uq, w float64) {
		for _, v := range []float64{up, uq, w} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("models are finite")
			}
		}
		checkPairMAP(t, up, uq, w)
	})
}

// smallModel decodes bytes into a model mixing the component shapes of a
// conditioned neighborhood — isolated variables, pairs, paths, stars,
// triangles — with unaries and weights from boundaryValues (0, negatives
// and Eps neighbours included), variables relabelled by a permutation and
// edges in shuffled order and orientation.
func smallModel(data []byte) (unary []float64, edges []Edge) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	vs := boundaryValues()
	val := func() float64 { return vs[next()%len(vs)] }
	for len(data) > 0 && len(unary) < 64 {
		base := len(unary)
		var shape [][2]int
		switch next() % 6 {
		case 0: // isolated
		case 1:
			shape = [][2]int{{0, 1}}
		case 2: // path
			shape = [][2]int{{0, 1}, {1, 2}, {2, 3}}[:1+next()%3]
		case 3: // star
			for leaf, leaves := 1, 2+next()%3; leaf <= leaves; leaf++ {
				shape = append(shape, [2]int{0, leaf})
			}
		case 4: // triangle
			shape = [][2]int{{0, 1}, {1, 2}, {0, 2}}
		case 5: // a pair joined twice
			shape = [][2]int{{0, 1}, {0, 1}}
		}
		size := 1
		for _, e := range shape {
			size = max(size, e[0]+1, e[1]+1)
		}
		for range size {
			unary = append(unary, val())
		}
		for _, e := range shape {
			edges = append(edges, Edge{I: base + e[0], J: base + e[1], W: val()})
		}
	}
	perm := make([]int, len(unary))
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := next() % (i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	shuffled := make([]float64, len(unary))
	for i, u := range unary {
		shuffled[perm[i]] = u
	}
	for i := range edges {
		j := next() % (i + 1)
		edges[i], edges[j] = edges[j], edges[i]
	}
	for i, e := range edges {
		e.I, e.J = perm[e.I], perm[e.J]
		if next()%2 == 1 {
			e.I, e.J = e.J, e.I
		}
		edges[i] = e
	}
	return shuffled, edges
}

// checkSolveSmall holds solveSmall to the whole-model solveMAPInto,
// assignment for assignment, writing into a buffer of stale values.
func checkSolveSmall(t *testing.T, unary []float64, edges []Edge, sc *smallScratch) {
	t.Helper()
	deg := make([]int32, len(unary))
	for _, e := range edges {
		deg[e.I]++
		deg[e.J]++
	}
	want := make([]bool, len(unary))
	solveMAPInto(unary, edges, want)
	got := make([]bool, len(unary))
	for i := range got {
		got[i] = !want[i]
	}
	solveSmall(unary, deg, edges, got, sc)
	if !slices.Equal(got, want) {
		t.Fatalf("solveSmall = %v, whole network = %v (unary %v, edges %v)", got, want, unary, edges)
	}
}

func TestSolveSmallMatchesWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var sc smallScratch
	for i := 0; i < 3000; i++ {
		data := make([]byte, 8+rng.Intn(120))
		rng.Read(data)
		unary, edges := smallModel(data)
		checkSolveSmall(t, unary, edges, &sc)
	}
}

// FuzzSolveSmall: the closed forms plus one network over the rest give the
// whole-model network's assignment on every model.
func FuzzSolveSmall(f *testing.F) {
	f.Add([]byte{1, 3, 4, 5})
	f.Add([]byte{0, 9, 1, 2, 3, 2, 2, 7, 8, 9, 10, 11, 4, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{3, 2, 0, 21, 22, 23, 24, 25, 26, 27, 5, 1, 2, 3, 4, 1, 0, 20})
	f.Add([]byte{4, 9, 30, 31, 32, 33, 34, 1, 9, 41, 7, 0, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		var sc smallScratch
		unary, edges := smallModel(data)
		checkSolveSmall(t, unary, edges, &sc)
	})
}

// BenchmarkSolveMAP solves the conditioned model of the largest HEPTH-like
// 0.4 neighborhood under empty evidence: whole on one network
// (solveMAPInto), small as MatchIDs does (solveSmall).
func BenchmarkSolveMAP(b *testing.B) {
	m, c, nb := benchPreparedAt(b, 0.4)
	ws := m.getWS()
	sc := m.scopeOf(c, nb, ws)
	readSet(sc, nil, nil, ws) // the read set buildLocal reads
	lm := m.buildLocal(sc, ws)
	unary, deg, edges := slices.Clone(lm.eff), slices.Clone(lm.deg), slices.Clone(lm.edges)
	m.putWS(ws)
	x := make([]bool, len(unary))
	b.Run("whole", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			solveMAPInto(unary, edges, x)
		}
	})
	b.Run("small", func(b *testing.B) {
		var sc smallScratch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			solveSmall(unary, deg, edges, x, &sc)
		}
	})
}
