package similarity

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestJaroKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"", "", 1},
		{"a", "a", 1},
		{"abc", "abc", 1},
		{"abc", "", 0},
		{"", "abc", 0},
		{"abc", "xyz", 0},
		// Classic textbook examples.
		{"martha", "marhta", 0.944444444444444},
		{"dixon", "dicksonx", 0.766666666666667},
		{"jellyfish", "smellyfish", 0.896296296296296},
	}
	for _, c := range cases {
		got := Jaro(c.a, c.b)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Jaro(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestJaroWinklerKnownValues(t *testing.T) {
	// martha/marhta share prefix "mar" (3), jaro = 0.9444..
	want := 0.944444444444444 + 3*0.1*(1-0.944444444444444)
	if got := JaroWinkler("martha", "marhta"); math.Abs(got-want) > 1e-12 {
		t.Errorf("JaroWinkler(martha,marhta) = %v, want %v", got, want)
	}
	if got := JaroWinkler("abc", "abc"); !almostEqual(got, 1) {
		t.Errorf("identical strings must score 1, got %v", got)
	}
}

func TestJaroSymmetry(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 40 {
			a = a[:40]
		}
		if len(b) > 40 {
			b = b[:40]
		}
		return almostEqual(Jaro(a, b), Jaro(b, a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestJaroRange(t *testing.T) {
	f := func(a, b string) bool {
		s := JaroWinkler(a, b)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestJaroIdentity(t *testing.T) {
	f := func(a string) bool { return almostEqual(Jaro(a, a), 1) }
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "abc", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"saturday", "sunday", 3},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinProperties(t *testing.T) {
	sym := func(a, b string) bool {
		if len(a) > 30 {
			a = a[:30]
		}
		if len(b) > 30 {
			b = b[:30]
		}
		return Levenshtein(a, b) == Levenshtein(b, a)
	}
	if err := quick.Check(sym, &quick.Config{MaxCount: 200}); err != nil {
		t.Error("symmetry:", err)
	}
	bounded := func(a, b string) bool {
		if len(a) > 30 {
			a = a[:30]
		}
		if len(b) > 30 {
			b = b[:30]
		}
		d := Levenshtein(a, b)
		lo := len(a) - len(b)
		if lo < 0 {
			lo = -lo
		}
		hi := len(a)
		if len(b) > hi {
			hi = len(b)
		}
		return d >= lo && d <= hi
	}
	if err := quick.Check(bounded, &quick.Config{MaxCount: 200}); err != nil {
		t.Error("bounds:", err)
	}
}

func TestLevenshteinSimilarity(t *testing.T) {
	if got := LevenshteinSimilarity("", ""); !almostEqual(got, 1) {
		t.Errorf("empty/empty = %v, want 1", got)
	}
	if got := LevenshteinSimilarity("abcd", "abcd"); !almostEqual(got, 1) {
		t.Errorf("identical = %v, want 1", got)
	}
	if got := LevenshteinSimilarity("abcd", "wxyz"); !almostEqual(got, 0) {
		t.Errorf("disjoint = %v, want 0", got)
	}
}

func TestQGrams(t *testing.T) {
	g := QGrams("abab", 2)
	if g["ab"] != 2 || g["ba"] != 1 || len(g) != 2 {
		t.Errorf("QGrams(abab,2) = %v", g)
	}
	g = QGrams("a", 2) // shorter than q: whole string
	if g["a"] != 1 || len(g) != 1 {
		t.Errorf("QGrams(a,2) = %v", g)
	}
	if len(QGrams("", 2)) != 0 {
		t.Error("QGrams of empty string must be empty")
	}
	if len(QGrams("abc", 0)) != 0 {
		t.Error("QGrams with q<=0 must be empty")
	}
}

func TestQGramJaccard(t *testing.T) {
	if got := QGramJaccard("abc", "abc", 2); !almostEqual(got, 1) {
		t.Errorf("identical = %v, want 1", got)
	}
	if got := QGramJaccard("abc", "xyz", 2); !almostEqual(got, 0) {
		t.Errorf("disjoint = %v, want 0", got)
	}
	if got := QGramJaccard("", "", 2); !almostEqual(got, 1) {
		t.Errorf("empty/empty = %v, want 1", got)
	}
	if got := QGramJaccard("abc", "", 2); !almostEqual(got, 0) {
		t.Errorf("abc/empty = %v, want 0", got)
	}
	f := func(a, b string) bool {
		s := QGramJaccard(a, b, 2)
		return s >= 0 && s <= 1 && almostEqual(s, QGramJaccard(b, a, 2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTokenSet(t *testing.T) {
	got := TokenSet("  Vibhor  RASTOGI vibhor ")
	if len(got) != 2 || got[0] != "vibhor" || got[1] != "rastogi" {
		t.Errorf("TokenSet = %v", got)
	}
	if len(TokenSet("")) != 0 {
		t.Error("TokenSet of empty string must be empty")
	}
}

func TestParseName(t *testing.T) {
	cases := []struct {
		raw   string
		first string
		last  string
	}{
		{"Vibhor Rastogi", "vibhor", "rastogi"},
		{"V. Rastogi", "v", "rastogi"},
		{"Rastogi", "", "rastogi"},
		{"Minos N. Garofalakis", "minos n", "garofalakis"},
		{"", "", ""},
	}
	for _, c := range cases {
		n := ParseName(c.raw)
		if n.First != c.first || n.Last != c.last {
			t.Errorf("ParseName(%q) = %+v, want {%q %q}", c.raw, n, c.first, c.last)
		}
	}
	if !ParseName("V. Rastogi").Abbreviated() {
		t.Error("V. Rastogi must parse as abbreviated")
	}
	if ParseName("Vibhor Rastogi").Abbreviated() {
		t.Error("Vibhor Rastogi must not parse as abbreviated")
	}
}

func TestNameLevel(t *testing.T) {
	cases := []struct {
		a, b string
		want Level
	}{
		// Identical full names: strong.
		{"Vibhor Rastogi", "Vibhor Rastogi", LevelStrong},
		// Small typo in full name: medium — needs relational support.
		{"Vibhor Rastogi", "Vibhor Rastogy", LevelMedium},
		// Abbreviated vs full with matching initial: capped at medium.
		{"V. Rastogi", "Vibhor Rastogi", LevelMedium},
		// Two identical abbreviated refs: still ambiguous, medium.
		{"V. Rastogi", "V. Rastogi", LevelMedium},
		// Mismatching initials: none.
		{"K. Rastogi", "Vibhor Rastogi", LevelNone},
		// Unrelated names: none.
		{"Vibhor Rastogi", "Nilesh Dalvi", LevelNone},
		// Same last name, different full first names: weak at most.
		{"John Smith", "Jane Smith", LevelNone},
	}
	for _, c := range cases {
		if got := StringLevel(c.a, c.b); got != c.want {
			t.Errorf("StringLevel(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestNameLevelSymmetric(t *testing.T) {
	names := []string{
		"Vibhor Rastogi", "V. Rastogi", "Nilesh Dalvi", "N. Dalvi",
		"Minos Garofalakis", "M. Garofalakis", "Vikram Rastogi",
		"Pedro Domingos", "P. Domingos", "Parag Singla",
	}
	for _, a := range names {
		for _, b := range names {
			if StringLevel(a, b) != StringLevel(b, a) {
				t.Errorf("asymmetric level for %q / %q", a, b)
			}
		}
	}
}

func TestAbbreviatedNeverStrong(t *testing.T) {
	// Property: any comparison involving an abbreviated name is at most
	// LevelMedium — this is what forces collective evidence on HEPTH.
	names := []string{"rastogi", "dalvi", "garofalakis", "smith", "domingos"}
	letters := "vnmpjk"
	for _, last := range names {
		for i := range letters {
			a := Name{First: letters[i : i+1], Last: last}
			for _, last2 := range names {
				b := Name{First: "vibhor", Last: last2}
				if NameLevel(a, b) > LevelMedium {
					t.Errorf("NameLevel(%v,%v) exceeds medium", a, b)
				}
			}
		}
	}
}

// BenchmarkJaroWinkler has one case per length regime Jaro distinguishes:
// author names (the scalar loop, below jaroBitsMin), the composite record
// keys of the people corpus (the word-parallel loop) and strings past
// jaroStackLen (the scalar loop on heap flags).
func BenchmarkJaroWinkler(b *testing.B) {
	long := strings.Repeat("collective entity matching ", 3)
	for _, bc := range []struct {
		name  string
		pairs [][2]string
	}{
		{"name", [][2]string{ // 6-14 bytes
			{"vibhor rastogi", "vibhor rastogy"},
			{"rastogi", "rastogy"},
			{"n dalvi", "nilesh dalvi"},
			{"garofalakis", "garofalaks"},
		}},
		{"key", [][2]string{ // 30-45 bytes
			{"jin dela | 91 cedar ln | 555-0168 |", "jin della | 91 cedar lane | 555-0168 |"},
			{"jin dela | 91 cedar ln | 555-0168 | 97553", "maria alvarez | 7 oak st | 555-0101 | 94110"},
			{"ann smith | 12 oak st | 555-0101 |", "anne smith | 12 oak street | 555-0101 |"},
			{"vibhor rastogi nilesh dalvi minos", "vibhor rastogy nilesh dalvi minos g"},
		}},
		{"long", [][2]string{ // > 64 bytes
			{long, long[1:] + "x"},
			{long, strings.ToUpper(long[:40]) + long[40:]},
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := bc.pairs[i%len(bc.pairs)]
				benchSink += JaroWinkler(p[0], p[1])
			}
		})
	}
}

var benchSink float64

func BenchmarkStringLevel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		StringLevel("V. Rastogi", "Vibhor Rastogi")
	}
}
