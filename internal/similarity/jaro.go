// Package similarity implements the string-similarity measures used by the
// entity matchers: Jaro, Jaro-Winkler (the measure the paper's Appendix B
// uses for author names), Levenshtein, and q-gram Jaccard, plus the
// discretization of Jaro-Winkler scores into the similarity buckets
// {1, 2, 3} that the MLN and RULES matchers consume.
package similarity

// jaroStackLen is the longest string Jaro scores without allocating.
const jaroStackLen = 64

// Jaro returns the Jaro similarity of a and b in [0, 1].
// It is 1 for identical strings and 0 for strings with no common
// characters (or when either string is empty and the other is not).
//
// Jaro(a, b) == Jaro(b, a) exactly. Per byte value, the greedy scan is a
// two-pointer merge of that byte's positions in a and in b — advance past
// a position more than window behind the other, else match both — and
// that rule reads the same from either side, so both orders pick the same
// matched positions and therefore the same transpositions.
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
