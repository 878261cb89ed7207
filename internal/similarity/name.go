package similarity

import "strings"

// Level is the discretized similarity bucket used by the matchers, as in
// Appendix B of the paper: similar(e1, e2, score) with score ∈ {1, 2, 3},
// 3 being the strongest. Level 0 means "not similar" — the pair is not a
// matching candidate at all.
type Level int

const (
	// LevelNone marks pairs that are not similarity candidates.
	LevelNone Level = 0
	// LevelWeak is weak string evidence (needs strong relational support).
	LevelWeak Level = 1
	// LevelMedium is medium string evidence (needs some relational support).
	LevelMedium Level = 2
	// LevelStrong is strong string evidence (sufficient on its own).
	LevelStrong Level = 3
)

// Name is a parsed author name. First may be a single letter when the
// source reference abbreviates the first name ("V. Rastogi").
type Name struct {
	First string // lowercase, no punctuation; possibly a single initial
	Last  string // lowercase, no punctuation
}

// ParseName splits a raw author string of the form "First Last",
// "F. Last" or "Last" into a Name. Everything before the final token is
// treated as the first/middle name block.
func ParseName(raw string) Name {
	clean := strings.Map(func(r rune) rune {
		switch r {
		case '.', ',':
			return ' '
		}
		return r
	}, strings.ToLower(raw))
	fields := strings.Fields(clean)
	switch len(fields) {
	case 0:
		return Name{}
	case 1:
		return Name{Last: fields[0]}
	default:
		return Name{
			First: strings.Join(fields[:len(fields)-1], " "),
			Last:  fields[len(fields)-1],
		}
	}
}

// Abbreviated reports whether the first name block is a bare initial.
func (n Name) Abbreviated() bool {
	return len(n.First) == 1
}

// String renders the name back to "first last" form.
func (n Name) String() string {
	if n.First == "" {
		return n.Last
	}
	return n.First + " " + n.Last
}

// Discretization thresholds. These play the role of the paper's
// discretization of Jaro-Winkler scores into {1,2,3}; the cut points
// were chosen so that (a) only *identical* spelled-out names are Level 3
// (sufficient evidence on their own), (b) typo-distance full-name matches
// are Level 2 (they need relational support), and (c) initial-vs-full
// matches are at most Level 2 — properties (b) and (c) are what make
// noisy (DBLP-like) and abbreviated (HEPTH-like) corpora require
// collective relational evidence, as §6.1 of the paper describes.
const (
	fullMediumThreshold = 0.85
	fullWeakThreshold   = 0.76
	lastMediumThreshold = 0.92
	lastWeakThreshold   = 0.82
	firstCompatibility  = 0.72
)

// NameLevel discretizes the similarity of two parsed names into a Level.
//
// When both first names are spelled out, the level is driven by the
// Jaro-Winkler similarity of the full name strings. When either side is
// abbreviated, the initials must agree and the level is driven by the
// last-name similarity, capped at LevelMedium: an initial can never be
// strong evidence on its own, because "V. Rastogi" may be any author
// whose first name starts with V.
//
// NameLevel(a, b) == NameLevel(b, a): every branch is a symmetric test or
// a JaroWinkler score, and Jaro is symmetric by construction.
func NameLevel(a, b Name) Level { return nameLevel(a, b, "", "") }

// NameLevelRendered is NameLevel for a caller that keeps every name's
// String() beside it (bib.NameTable does, once per distinct name): as must
// be a.String() and bs b.String(). The full names are then scored without
// being concatenated again, which allocates once they outgrow the runtime's
// 32-byte temporary, as the composite keys of record corpora do.
func NameLevelRendered(a, b Name, as, bs string) Level { return nameLevel(a, b, as, bs) }

// nameLevel is NameLevel given the rendered names, or "" for both to have
// them rendered if the guards let the pair through. (A name that gets that
// far has a last token, so its rendering is never "".)
func nameLevel(a, b Name, as, bs string) Level {
	if a.Last == "" || b.Last == "" {
		return LevelNone
	}
	if a.Abbreviated() || b.Abbreviated() {
		if a.First != "" && b.First != "" && a.First[0] != b.First[0] {
			return LevelNone
		}
		ls := JaroWinkler(a.Last, b.Last)
		switch {
		case ls >= lastMediumThreshold:
			return LevelMedium
		case ls >= lastWeakThreshold:
			return LevelWeak
		default:
			return LevelNone
		}
	}
	// Identical spelled-out names are the only Level-3 evidence.
	if a == b {
		return LevelStrong
	}
	// Guard against first or last names that disagree wholesale even
	// though the combined string happens to score well ("John Smith" vs
	// "Jane Smith" shares most of its characters but is no candidate).
	// The guards run first: they reject most pairs, on short strings,
	// before the full names are concatenated and scored.
	if JaroWinkler(a.Last, b.Last) < lastWeakThreshold {
		return LevelNone
	}
	if a.First != "" && b.First != "" && JaroWinkler(a.First, b.First) < firstCompatibility {
		return LevelNone
	}
	if as == "" {
		as, bs = a.String(), b.String()
	}
	s := JaroWinkler(as, bs)
	switch {
	case s >= fullMediumThreshold:
		return LevelMedium
	case s >= fullWeakThreshold:
		return LevelWeak
	default:
		return LevelNone
	}
}

// StringLevel parses both raw strings and discretizes their similarity.
func StringLevel(a, b string) Level {
	return NameLevel(ParseName(a), ParseName(b))
}
