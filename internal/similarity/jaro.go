// Package similarity implements the string-similarity measures used by the
// entity matchers: Jaro, Jaro-Winkler (the measure the paper's Appendix B
// uses for author names), Levenshtein, and q-gram Jaccard, plus the
// discretization of Jaro-Winkler scores into the similarity buckets
// {1, 2, 3} that the MLN and RULES matchers consume.
package similarity

import "math/bits"

// jaroStackLen is the longest string Jaro scores without allocating, and
// the longest it scores word-parallel: a match set over either string is
// then one uint64.
const jaroStackLen = 64

// jaroBitsMin is the longest-input length from which Jaro scores
// word-parallel. Below it the kernel's set-up (zeroing ~0.8 kB of masks on
// the stack) costs more than the scalar window scan it replaces: on 2-8 byte
// last names the scalar loop takes 39 ns and the word-parallel one 46 ns, at
// 10 bytes it is 100 ns against 63 ns (2-vCPU box; BenchmarkJaroWinkler's
// name and key cases sit on either side).
const jaroBitsMin = 10

// Jaro returns the Jaro similarity of a and b in [0, 1].
// It is 1 for identical strings and 0 for strings with no common
// characters (or when either string is empty and the other is not).
//
// Jaro(a, b) == Jaro(b, a) exactly. Per byte value, the greedy scan is a
// two-pointer merge of that byte's positions in a and in b — advance past
// a position more than window behind the other, else match both — and
// that rule reads the same from either side, so both orders pick the same
// matched positions and therefore the same transpositions.
//
// Two loops compute the one greedy matching, chosen by input length alone.
// The scalar loop scans b's window for every byte of a. For inputs of
// jaroBitsMin..jaroStackLen bytes, jaroBits keeps b's positions per byte
// value as a bit mask, so "the first unmatched b[j] == a[i] inside the
// window" is the lowest set bit of mask[a[i]] & window &^ bMatched: the same
// j the scan stops at, found in three word operations. Same matched
// positions, same counts, the same float64 to the last bit
// (FuzzJaroMatchesReference).
func Jaro(a, b string) float64 {
	if a == b {
		return 1
	}
	la, lb := len(a), len(b)
	if la == 0 || lb == 0 {
		return 0
	}
	// Match window: characters match if equal and within window distance.
	window := max(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	if longest := max(la, lb); longest >= jaroBitsMin && longest <= jaroStackLen {
		return jaroBits(a, b, window)
	}
	// Matched flags live on the stack for name-sized input; only longer
	// strings pay for a heap slice.
	var aBuf, bBuf [jaroStackLen]bool
	aMatched, bMatched := aBuf[:min(la, jaroStackLen)], bBuf[:min(lb, jaroStackLen)]
	if la > jaroStackLen {
		aMatched = make([]bool, la)
	}
	if lb > jaroStackLen {
		bMatched = make([]bool, lb)
	}
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
	// Count transpositions among matched characters.
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
	return jaroScore(la, lb, matches, transpositions)
}

// jaroBits is Jaro's matching for non-empty strings of at most
// jaroStackLen bytes, one bit per position.
func jaroBits(a, b string, window int) float64 {
	la, lb := len(a), len(b)
	// masks[slot[c]] has bit j set where b[j] == c. A byte absent from b
	// keeps slot 0, whose mask stays empty; b has at most 64 distinct bytes,
	// so the slots fit, and only 256 + 65·8 bytes are zeroed per call
	// instead of a mask per byte value.
	var slot [256]uint8
	var masks [jaroStackLen + 1]uint64
	used := uint8(0)
	for j := 0; j < lb; j++ {
		s := slot[b[j]]
		if s == 0 {
			used++
			s = used
			slot[b[j]] = s
		}
		masks[s] |= 1 << uint(j)
	}
	var aMatched, bMatched uint64
	// below(n) is bits [0, n); the window of a[i] is below(hi) &^ below(lo)
	// with lo = max(i-window, 0) and hi = min(i+window+1, lb), each of which
	// moves by at most one position per step.
	belowHi, belowLo := uint64(1)<<uint(min(window+1, lb))-1, uint64(0)
	for i := 0; i < la; i++ {
		if free := masks[slot[a[i]]] & belowHi &^ belowLo &^ bMatched; free != 0 {
			bMatched |= free & -free
			aMatched |= 1 << uint(i)
		}
		if i+window+1 < lb {
			belowHi = belowHi<<1 | 1
		}
		if i >= window {
			belowLo = belowLo<<1 | 1
		}
	}
	if aMatched == 0 {
		return 0
	}
	// The k-th matched position of a pairs with the k-th of b.
	transpositions := 0
	for am, bm := aMatched, bMatched; am != 0; am, bm = am&(am-1), bm&(bm-1) {
		if a[bits.TrailingZeros64(am)] != b[bits.TrailingZeros64(bm)] {
			transpositions++
		}
	}
	return jaroScore(la, lb, bits.OnesCount64(aMatched), transpositions)
}

func jaroScore(la, lb, matches, transpositions int) float64 {
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// winklerPrefixScale is the standard Winkler prefix scaling factor.
const winklerPrefixScale = 0.1

// winklerMaxPrefix is the maximum common-prefix length rewarded by Winkler.
const winklerMaxPrefix = 4

// JaroWinkler returns the Jaro-Winkler similarity of a and b in [0, 1],
// boosting the Jaro score by up to 0.4·(1-jaro) for a shared prefix of up
// to four characters. This is the measure Appendix B of the paper uses to
// score author-name pairs.
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
	prefix := 0
	for prefix < len(a) && prefix < len(b) && prefix < winklerMaxPrefix && a[prefix] == b[prefix] {
		prefix++
	}
	return j + float64(prefix)*winklerPrefixScale*(1-j)
}
