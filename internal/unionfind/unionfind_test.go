package unionfind

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSingletons(t *testing.T) {
	d := New(5)
	if d.Count() != 5 {
		t.Fatalf("Count() = %d, want 5", d.Count())
	}
	for i := 0; i < 5; i++ {
		if d.Find(i) != i {
			t.Errorf("Find(%d) = %d, want %d", i, d.Find(i), i)
		}
	}
	if d.Len() != 5 {
		t.Errorf("Len() = %d, want 5", d.Len())
	}
}

func TestUnionBasic(t *testing.T) {
	d := New(4)
	if !d.Union(0, 1) {
		t.Fatal("Union(0,1) should merge")
	}
	if d.Union(0, 1) {
		t.Fatal("second Union(0,1) should be a no-op")
	}
	if !d.Same(0, 1) {
		t.Error("0 and 1 should be in the same set")
	}
	if d.Same(0, 2) {
		t.Error("0 and 2 should not be in the same set")
	}
	if d.Count() != 3 {
		t.Errorf("Count() = %d, want 3", d.Count())
	}
}

func TestTransitivity(t *testing.T) {
	d := New(6)
	d.Union(0, 1)
	d.Union(1, 2)
	d.Union(4, 5)
	if !d.Same(0, 2) {
		t.Error("transitivity violated: 0~1, 1~2 but !Same(0,2)")
	}
	if d.Same(0, 4) {
		t.Error("0 and 4 were never unioned")
	}
	if d.Count() != 3 { // {0,1,2}, {3}, {4,5}
		t.Errorf("Count() = %d, want 3", d.Count())
	}
}

func TestGrow(t *testing.T) {
	d := New(2)
	d.Union(0, 1)
	d.Grow(4)
	if d.Len() != 4 {
		t.Fatalf("Len() = %d, want 4", d.Len())
	}
	if d.Count() != 3 {
		t.Errorf("Count() = %d, want 3", d.Count())
	}
	if d.Same(1, 2) {
		t.Error("grown elements must start as singletons")
	}
	d.Grow(3) // shrink request is a no-op
	if d.Len() != 4 {
		t.Errorf("Grow must never shrink: Len() = %d", d.Len())
	}
}

func TestSets(t *testing.T) {
	d := New(5)
	d.Union(0, 3)
	d.Union(1, 4)
	sets := d.Sets()
	if len(sets) != 3 {
		t.Fatalf("got %d sets, want 3", len(sets))
	}
	total := 0
	for _, members := range sets {
		total += len(members)
	}
	if total != 5 {
		t.Errorf("sets cover %d elements, want 5", total)
	}
}

// TestAgainstNaive cross-checks DSU equivalence classes against a naive
// O(n^2) reachability model on random union sequences.
func TestAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(30)
		d := New(n)
		// naive adjacency closure
		same := make([][]bool, n)
		for i := range same {
			same[i] = make([]bool, n)
			same[i][i] = true
		}
		closure := func() {
			for k := 0; k < n; k++ {
				for i := 0; i < n; i++ {
					if !same[i][k] {
						continue
					}
					for j := 0; j < n; j++ {
						if same[k][j] {
							same[i][j] = true
						}
					}
				}
			}
		}
		for op := 0; op < n; op++ {
			a, b := rng.Intn(n), rng.Intn(n)
			d.Union(a, b)
			same[a][b], same[b][a] = true, true
			closure()
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d.Same(i, j) != same[i][j] {
					t.Fatalf("trial %d: Same(%d,%d)=%v, naive=%v",
						trial, i, j, d.Same(i, j), same[i][j])
				}
			}
		}
	}
}

// Property: Count always equals the number of distinct representatives.
func TestCountInvariant(t *testing.T) {
	f := func(pairs []uint8) bool {
		d := New(16)
		for i := 0; i+1 < len(pairs); i += 2 {
			d.Union(int(pairs[i]%16), int(pairs[i+1]%16))
		}
		reps := map[int]bool{}
		for i := 0; i < 16; i++ {
			reps[d.Find(i)] = true
		}
		return len(reps) == d.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Find is stable — calling it twice returns the same root.
func TestFindStable(t *testing.T) {
	f := func(pairs []uint8, probe uint8) bool {
		d := New(16)
		for i := 0; i+1 < len(pairs); i += 2 {
			d.Union(int(pairs[i]%16), int(pairs[i+1]%16))
		}
		x := int(probe % 16)
		return d.Find(x) == d.Find(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkUnionFind(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 1 << 16
	ops := make([][2]int, 1<<16)
	for i := range ops {
		ops[i] = [2]int{rng.Intn(n), rng.Intn(n)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := New(n)
		for _, op := range ops {
			d.Union(op[0], op[1])
		}
	}
}
