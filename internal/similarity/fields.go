package similarity

import (
	"strconv"
	"strings"
)

// Typed-field kernels for non-bibliographic domains. A record in such a
// domain carries several named fields (name, street, zip, …) packed into
// one composite key separated by FieldSep; the declarative rule language
// (internal/rules/lang) addresses the fields by name and compares them
// with the kernels below: the package's string measures over normalized
// payloads, plus a numeric comparator. Keeping them here
// gives every domain one set of measures with one set of parity tests.

// FieldSep separates fields inside a composite record key:
// "ann smith | 12 oak st | 94110 | 555-0101".
const FieldSep = "|"

// SplitFields splits a composite key on FieldSep, trimming surrounding
// whitespace from each field. Empty fields are preserved positionally so
// indices line up with the domain's field declaration.
func SplitFields(key string) []string {
	parts := strings.Split(key, FieldSep)
	for i, p := range parts {
		parts[i] = strings.TrimSpace(p)
	}
	return parts
}

// JoinFields renders fields back into a composite key. It is the inverse
// of SplitFields for fields that are trimmed and FieldSep-free.
func JoinFields(fields []string) string {
	return strings.Join(fields, " "+FieldSep+" ")
}

// NormalizeField canonicalizes one field payload the same way ParseName
// canonicalizes author names: lowercase, '.' and ',' mapped to spaces,
// whitespace runs collapsed to single spaces, ends trimmed.
func NormalizeField(s string) string {
	clean := strings.Map(func(r rune) rune {
		switch r {
		case '.', ',':
			return ' '
		}
		return r
	}, strings.ToLower(s))
	return strings.Join(strings.Fields(clean), " ")
}

// The Field* kernels normalize both payloads on every call. A caller that
// compares one record with many (rules/lang grounds every candidate pair of
// a record) normalizes each payload once with NormalizeField and calls the
// Normalized* forms, which are the kernels proper.

// FieldEqual reports normalized equality of two non-empty fields. Two
// empty fields are NOT equal: absence of a value is no evidence.
func FieldEqual(a, b string) bool {
	return NormalizedEqual(NormalizeField(a), NormalizeField(b))
}

// FieldDiffer reports that both fields are present and normalize to
// different values — the hard-inequality predicate of the rule language.
func FieldDiffer(a, b string) bool {
	return NormalizedDiffer(NormalizeField(a), NormalizeField(b))
}

// FieldJaro is Jaro-Winkler over normalized fields.
func FieldJaro(a, b string) float64 {
	return NormalizedJaro(NormalizeField(a), NormalizeField(b))
}

// FieldQGram is q-gram Jaccard (q = 2) over normalized fields.
func FieldQGram(a, b string) float64 {
	return NormalizedQGram(NormalizeField(a), NormalizeField(b))
}

// FieldLev is Levenshtein edit distance over normalized fields.
func FieldLev(a, b string) int {
	return NormalizedLev(NormalizeField(a), NormalizeField(b))
}

// NormalizedEqual is FieldEqual over payloads already in NormalizeField form.
func NormalizedEqual(na, nb string) bool { return na != "" && na == nb }

// NormalizedDiffer is FieldDiffer over payloads already in NormalizeField
// form.
func NormalizedDiffer(na, nb string) bool { return na != "" && nb != "" && na != nb }

// NormalizedJaro is FieldJaro over payloads already in NormalizeField form.
func NormalizedJaro(na, nb string) float64 { return JaroWinkler(na, nb) }

// NormalizedQGram is FieldQGram over payloads already in NormalizeField form.
func NormalizedQGram(na, nb string) float64 { return QGramJaccard(na, nb, 2) }

// NormalizedLev is FieldLev over payloads already in NormalizeField form.
func NormalizedLev(na, nb string) int { return Levenshtein(na, nb) }

// ParseNumber parses a field as a finite decimal number. Leading and
// trailing whitespace is ignored; anything else non-numeric fails.
func ParseNumber(s string) (float64, bool) {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil || v != v || v > 1e308 || v < -1e308 {
		return 0, false
	}
	return v, true
}

// AbsDiff returns |a−b| for two numeric fields. ok is false when either
// side does not parse as a number, in which case the comparison predicate
// simply does not hold (missing data is no evidence).
func AbsDiff(a, b string) (float64, bool) {
	va, okA := ParseNumber(a)
	vb, okB := ParseNumber(b)
	if !okA || !okB {
		return 0, false
	}
	d := va - vb
	if d < 0 {
		d = -d
	}
	return d, true
}
