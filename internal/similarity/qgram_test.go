package similarity

import (
	"strings"
	"testing"
)

// qgramJaccardRef is the map implementation QGramJaccard replaced, kept
// as the reference: set Jaccard over the keys of QGrams.
func qgramJaccardRef(a, b string, q int) float64 {
	ga, gb := QGrams(a, q), QGrams(b, q)
	if len(ga) == 0 && len(gb) == 0 {
		return 1
	}
	if len(ga) == 0 || len(gb) == 0 {
		return 0
	}
	inter := 0
	for g := range ga {
		if _, ok := gb[g]; ok {
			inter++
		}
	}
	return float64(inter) / float64(len(ga)+len(gb)-inter)
}

func TestQGramJaccardMatchesMapReference(t *testing.T) {
	long := strings.Repeat("abcdefghij", 12) // more grams than the stack buffers hold
	for _, c := range []struct {
		a, b string
		q    int
		want float64
	}{
		{"abc", "bcd", 2, 1.0 / 3.0},
		{"abab", "ab", 2, 0.5},         // repeated grams count once
		{"aaaa", "aa", 2, 1},           // one distinct gram each
		{"a", "a", 2, 1},               // shorter than q: the whole string is the gram
		{"a", "ab", 2, 0},              // "a" is not a 2-gram of "ab"
		{"a", "", 2, 0},                // one side empty
		{"", "", 2, 1},                 // both empty
		{"abc", "abd", 0, 1},           // q <= 0: no grams on either side
		{"abc", "abd", -1, 1},          //
		{"josé", "jose", 2, 2.0 / 5.0}, // byte grams: é is two bytes
		{"李小龍", "李小龙", 3, 6.0 / 8.0},   // the last rune differs in its last byte only
		{long, long[3:], 3, 1},
		{long, "abc", 3, 1.0 / 10.0},
	} {
		got := QGramJaccard(c.a, c.b, c.q)
		if got != c.want || got != qgramJaccardRef(c.a, c.b, c.q) || got != QGramJaccard(c.b, c.a, c.q) {
			t.Errorf("QGramJaccard(%q, %q, %d) = %v (swapped %v), want %v, reference %v",
				c.a, c.b, c.q, got, QGramJaccard(c.b, c.a, c.q), c.want, qgramJaccardRef(c.a, c.b, c.q))
		}
	}
	if n := testing.AllocsPerRun(100, func() { QGramJaccard("vibhor rastogi", "vibhor rastogy", 2) }); n != 0 {
		t.Errorf("QGramJaccard allocates %v times per call on name-sized input, want 0", n)
	}
}

// FuzzQGramJaccard: in [0,1], symmetric, and equal to the map reference
// for arbitrary bytes and gram sizes.
func FuzzQGramJaccard(f *testing.F) {
	f.Add("Vibhor Rastogi", "V. Rastogi", 2)
	f.Add("", "x", 1)
	f.Add("abab", "ba", 3)
	f.Add("ü垃圾", "ü垃", 2)
	f.Add(strings.Repeat("xy", 40), strings.Repeat("yx", 40), 2)
	f.Fuzz(func(t *testing.T, a, b string, q int) {
		if len(a) > 512 || len(b) > 512 {
			return
		}
		s := QGramJaccard(a, b, q)
		if !(s >= 0 && s <= 1) {
			t.Fatalf("QGramJaccard(%q, %q, %d) = %v out of [0,1]", a, b, q, s)
		}
		if rev := QGramJaccard(b, a, q); rev != s {
			t.Fatalf("asymmetric: %v vs %v", s, rev)
		}
		if ref := qgramJaccardRef(a, b, q); ref != s {
			t.Fatalf("QGramJaccard(%q, %q, %d) = %v, map reference %v", a, b, q, s, ref)
		}
	})
}

func BenchmarkQGramJaccard(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		QGramJaccard("vibhor rastogi", "vibhor rastogy", 2)
	}
}
