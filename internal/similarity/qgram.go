package similarity

import (
	"slices"
	"strings"
)

// QGrams returns the multiset of q-grams of s as a map from gram to count.
// Strings shorter than q yield a single gram equal to the whole string,
// so that very short names still participate in gram-based indexing.
func QGrams(s string, q int) map[string]int {
	out := make(map[string]int)
	if q <= 0 {
		return out
	}
	if len(s) < q {
		if len(s) > 0 {
			out[s]++
		}
		return out
	}
	for i := 0; i+q <= len(s); i++ {
		out[s[i:i+q]]++
	}
	return out
}

// QGramJaccard returns the Jaccard similarity of the q-gram *sets* of a
// and b in [0, 1] — the sets QGrams would return, without building them:
// the grams are collected as substrings into stack-backed slices, sorted,
// and the intersection counted by one merge. It is the measure canopies
// are built on (internal/canopy counts it along posting lists instead) and
// the qgram kernel of rule programs.
func QGramJaccard(a, b string, q int) float64 {
	var bufA, bufB [48]string // names and field values rarely have more grams
	ga, gb := gramSet(bufA[:0], a, q), gramSet(bufB[:0], b, q)
	if len(ga) == 0 && len(gb) == 0 {
		return 1
	}
	if len(ga) == 0 || len(gb) == 0 {
		return 0
	}
	inter := 0
	for i, j := 0, 0; i < len(ga) && j < len(gb); {
		switch c := strings.Compare(ga[i], gb[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			inter, i, j = inter+1, i+1, j+1
		}
	}
	union := len(ga) + len(gb) - inter
	return float64(inter) / float64(union)
}

// gramSet appends the distinct q-grams of s — the keys of QGrams(s, q) —
// to dst in ascending order.
func gramSet(dst []string, s string, q int) []string {
	q = min(q, len(s)) // a string shorter than q is its own single gram
	for i := 0; q > 0 && i+q <= len(s); i++ {
		dst = append(dst, s[i:i+q])
	}
	slices.Sort(dst)
	return slices.Compact(dst)
}

// TokenSet splits s on whitespace, lowercases each token and returns the
// distinct tokens. Used by the canopy index to key author names.
func TokenSet(s string) []string {
	fields := strings.Fields(strings.ToLower(s))
	seen := make(map[string]bool, len(fields))
	out := fields[:0]
	for _, f := range fields {
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	return out
}
