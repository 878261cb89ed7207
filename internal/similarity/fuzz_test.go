package similarity

import "testing"

// FuzzStringLevel: arbitrary name strings must never panic, levels stay
// in range, and the relation is symmetric with identical inputs strong
// or none (empty).
func FuzzStringLevel(f *testing.F) {
	f.Add("Vibhor Rastogi", "V. Rastogi")
	f.Add("", "x")
	f.Add("a b c d e", "A.B.")
	f.Add("ü垃圾", "ü垃圾")
	f.Fuzz(func(t *testing.T, a, b string) {
		la := StringLevel(a, b)
		if la < LevelNone || la > LevelStrong {
			t.Fatalf("level out of range: %d", la)
		}
		if lb := StringLevel(b, a); lb != la {
			t.Fatalf("asymmetric: %q/%q -> %d vs %d", a, b, la, lb)
		}
	})
}

// FuzzJaro: scores stay in [0,1] and the measure is symmetric.
func FuzzJaro(f *testing.F) {
	f.Add("martha", "marhta")
	f.Add("", "")
	f.Add("aaaa", "aaab")
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 256 || len(b) > 256 {
			return
		}
		s := JaroWinkler(a, b)
		if s < 0 || s > 1 {
			t.Fatalf("JaroWinkler(%q,%q) = %v out of range", a, b, s)
		}
		if s2 := JaroWinkler(b, a); s2 != s {
			// Winkler prefix is symmetric; Jaro itself is too.
			t.Fatalf("asymmetric: %v vs %v", s, s2)
		}
	})
}

// FuzzLastLevelBoundsNameLevel: the last names bound a pair's level, which
// is what lets bib.NameTable settle most pairs from a last-name memo: a
// non-zero NameLevel implies a non-zero LastLevel, and an abbreviated pair
// whose initials agree has exactly its LastLevel.
func FuzzLastLevelBoundsNameLevel(f *testing.F) {
	f.Add("V. Rastogi", "Vibhor Rastogy")
	f.Add("rastogi", "v rastogi")
	f.Add("John Smith", "Jon Smith")
	f.Add("a b", ".")
	f.Add("N. Dalvi", "M. Dalvi")
	f.Fuzz(func(t *testing.T, a, b string) {
		na, nb := ParseName(a), ParseName(b)
		nl, ll := NameLevel(na, nb), LastLevel(na.Last, nb.Last)
		if nl != LevelNone && ll == LevelNone {
			t.Fatalf("%q/%q: NameLevel %d under LastLevel none", a, b, nl)
		}
		if (na.Abbreviated() || nb.Abbreviated()) && InitialsAgree(na, nb) && nl != ll {
			t.Fatalf("%q/%q: abbreviated pair with agreeing initials at NameLevel %d, LastLevel %d", a, b, nl, ll)
		}
	})
}
