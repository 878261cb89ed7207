package similarity

import (
	"math/rand"
	"strings"
	"testing"
)

// The Jaro and NameLevel bodies from before the stack scratch and the
// guards-first order, kept as the references the kernels are pinned
// bit-identical against.

// jaroRef is Jaro with two heap slices of matched flags per call.
func jaroRef(a, b string) float64 {
	if a == b {
		return 1
	}
	la, lb := len(a), len(b)
	if la == 0 || lb == 0 {
		return 0
	}
	window := max(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	aMatched := make([]bool, la)
	bMatched := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if bMatched[j] || a[i] != b[j] {
				continue
			}
			aMatched[i] = true
			bMatched[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !aMatched[i] {
			continue
		}
		for !bMatched[j] {
			j++
		}
		if a[i] != b[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

func jaroWinklerRef(a, b string) float64 {
	j := jaroRef(a, b)
	prefix := 0
	for prefix < len(a) && prefix < len(b) && prefix < winklerMaxPrefix && a[prefix] == b[prefix] {
		prefix++
	}
	return j + float64(prefix)*winklerPrefixScale*(1-j)
}

// nameLevelRef is NameLevel scoring the full names before its two guards.
func nameLevelRef(a, b Name) Level {
	if a.Last == "" || b.Last == "" {
		return LevelNone
	}
	if a.Abbreviated() || b.Abbreviated() {
		if a.First != "" && b.First != "" && a.First[0] != b.First[0] {
			return LevelNone
		}
		ls := jaroWinklerRef(a.Last, b.Last)
		switch {
		case ls >= lastMediumThreshold:
			return LevelMedium
		case ls >= lastWeakThreshold:
			return LevelWeak
		default:
			return LevelNone
		}
	}
	if a == b {
		return LevelStrong
	}
	s := jaroWinklerRef(a.String(), b.String())
	if jaroWinklerRef(a.Last, b.Last) < lastWeakThreshold {
		return LevelNone
	}
	if a.First != "" && b.First != "" && jaroWinklerRef(a.First, b.First) < firstCompatibility {
		return LevelNone
	}
	switch {
	case s >= fullMediumThreshold:
		return LevelMedium
	case s >= fullWeakThreshold:
		return LevelWeak
	default:
		return LevelNone
	}
}

// NameLevelRef hands the reference to the external test package, which can
// import the blocking stage to draw name pairs from real neighborhoods.
var NameLevelRef = nameLevelRef

// FuzzJaroMatchesReference: Jaro is the reference to the last bit (== on
// the float64) and symmetric, on both sides of every choice the kernel
// makes: the two lengths that select the loop, an empty window, a window
// running past either end, bytes the sign bit would mangle, and runs of one
// byte, where which equal position is taken decides the transpositions.
func FuzzJaroMatchesReference(f *testing.F) {
	f.Add("martha", "marhta")
	f.Add("", "x")
	f.Add("vibhor rastogi", "vibhor rastogy")
	for _, n := range []int{1, jaroBitsMin - 1, jaroBitsMin, jaroBitsMin + 1, jaroStackLen - 1, jaroStackLen, jaroStackLen + 1, 3 * jaroStackLen} {
		long := strings.Repeat("abcdefghij", n/10+1)[:n]
		f.Add(long, long[1:]+"x")
		f.Add(long, "abc")
		f.Add("jihgfedcba", long)
		f.Add(long, "a") // the window of a's tail lies wholly past b's end
		same := strings.Repeat("a", n)
		f.Add(same, same[1:]+"b")
		f.Add(same+"b", "b"+same)
	}
	f.Add("ab", "ba")                    // window 0: only aligned positions match
	f.Add("abcdefghijk", "bcdefghijkab") // window 4, every match off the diagonal
	f.Add("jos\xe9 garc\xeda l\xf3pez", "jose garc\xeda lop\xe9z")
	f.Add(strings.Repeat("\xff\x80", 32), strings.Repeat("\x80\xff", 32)) // 64 bytes each way, window 31
	f.Add(strings.Repeat("ab", 32), strings.Repeat("a", 64))
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 1024 || len(b) > 1024 {
			return
		}
		got, want := Jaro(a, b), jaroRef(a, b)
		if got != want {
			t.Fatalf("Jaro(%q, %q) = %v, reference %v", a, b, got, want)
		}
		if swapped := Jaro(b, a); swapped != got {
			t.Fatalf("Jaro(%q, %q) = %v but swapped %v", a, b, got, swapped)
		}
	})
}

// TestJaroMatchesReferenceSmallAlphabet is the fuzz property on what plain
// `go test` can afford: every length pair up to past the stack length, over
// two- and three-letter alphabets, where most positions have several equal
// candidates and the kernels agree only if they take the same one.
func TestJaroMatchesReferenceSmallAlphabet(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	random := func(n, letters int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = "ab\xe9"[rng.Intn(letters)]
		}
		return string(b)
	}
	for la := 0; la <= jaroStackLen+3; la++ {
		for lb := la; lb <= jaroStackLen+3; lb++ {
			a, b := random(la, 2+la%2), random(lb, 2+lb%2)
			if got, want := Jaro(a, b), jaroRef(a, b); got != want {
				t.Fatalf("Jaro(%q, %q) = %v, reference %v", a, b, got, want)
			}
			if got, want := Jaro(b, a), jaroRef(b, a); got != want {
				t.Fatalf("Jaro(%q, %q) = %v, reference %v", b, a, got, want)
			}
		}
	}
}

func TestJaroDoesNotAllocate(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { Jaro("vibhor rastogi", "vibhor rastogy") }); n != 0 {
		t.Errorf("Jaro allocates %v times per call on name-sized input, want 0", n)
	}
}

// FuzzNameLevelSymmetric: NameLevel(a, b) == NameLevel(b, a) for arbitrary
// parsed names — what lets the blocking stage cache one level per unordered
// pair of names — and both equal the reference.
func FuzzNameLevelSymmetric(f *testing.F) {
	f.Add("vibhor", "rastogi", "v", "rastogi")
	f.Add("john", "smith", "jane", "smith")
	f.Add("", "rastogi", "vibhor", "rastogy")
	f.Add("v", "", "", "")
	f.Add("jose maria", "alvarez", "jose", "alvares")
	f.Fuzz(func(t *testing.T, af, al, bf, bl string) {
		a, b := Name{First: af, Last: al}, Name{First: bf, Last: bl}
		ab, ba := NameLevel(a, b), NameLevel(b, a)
		if ab != ba {
			t.Fatalf("NameLevel(%v, %v) = %d but swapped %d", a, b, ab, ba)
		}
		if want := nameLevelRef(a, b); ab != want {
			t.Fatalf("NameLevel(%v, %v) = %d, reference %d", a, b, ab, want)
		}
	})
}
