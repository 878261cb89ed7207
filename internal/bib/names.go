package bib

import (
	"iter"
	"strings"

	"repro/internal/flat"
	"repro/internal/similarity"
)

// NameTable is a dataset's references quotiented by parsed name, and the
// only place the blocking stage calls the NameLevel kernel. Every reference
// is parsed once and given the dense id of its name's class, and every
// class the dense id of its last name (ids in order of first appearance, so
// appending references never renumbers one). The level of two references is
// the level of their classes, which reads nothing but the two parsed names:
// references of one class are interchangeable in every similarity test, so
// a neighborhood's name-similar pairs are the member products of its
// similar class pairs.
//
// A class pair is resolved through its last names first
// (similarity.LastLevel, scored once per unordered pair of distinct last
// names and memoized): dissimilar last names make the pair LevelNone, and an
// abbreviated pair is its initials test and its last-name level. Only two
// spelled-out names with similar last names need the full kernel, scored
// once per class pair and cached. Most class pairs are settled by a last-name
// pair many of them share (HEPTH-like 0.5: 2 991 last-name pairs and 148
// class pairs scored, where a cache of every class pair scored 15 671).
//
// The table is derived state of Dataset.Refs, exactly as Coauthor is of
// Papers: get it from Dataset.Names, never store it. Dataset.Extend gives
// its result a continuation of the table (extend), so a stream of extended
// datasets parses each reference and scores each pair once.
//
// What extend builds is sized from counts, not grown: the class column
// from the reference count, the rendered names and the class dictionary
// from the reference count (a bound on the classes the references open),
// and every other per-class column and the last-name dictionary from the
// class count once the references are classed.
type NameTable struct {
	class []int32           // reference -> class of its parsed name
	names []similarity.Name // class -> the parsed name its references share
	full  []string          // class -> names[class].String(), rendered once
	self  []uint8           // class -> the level of the name with itself
	last  []int32           // class -> id of its last name
	lasts []string          // last-name id -> the last name
	// The dictionaries: rendered name -> class, last name -> last-name id.
	// A rendered name determines its parsed name (the last name is what
	// follows its last space).
	ids, lastIDs flat.Strings
	// The scored pairs: one word per pair, its flat.Pair key with the level
	// in the two payload bits — of distinct last names in lastPairs, of
	// distinct spelled-out classes with similar last names in pairs. Both
	// kernels are symmetric (FuzzNameLevelSymmetric pins it), so an entry
	// does not depend on the order the pair was asked in. The tables are
	// sized by what they hold — three eighths to three quarters full once
	// grown, 11-21 bytes per scored pair — not by the square of the ids.
	lastPairs, pairs    *flat.Table[struct{}]
	keptRefs, keptPairs int // taken over by extend: references parsed, pairs scored
}

func newNameTable(refs []Reference) *NameTable {
	return (&NameTable{lastPairs: flat.New[struct{}](0, levelMask), pairs: flat.New[struct{}](0, levelMask)}).extend(refs)
}

// extend returns the table of t's references followed by refs, leaving t
// as it was: t's columns are copied into columns sized for the result, and
// its dictionaries and scored pairs are cloned.
func (t *NameTable) extend(refs []Reference) *NameTable {
	u := &NameTable{
		class:     make([]int32, len(t.class), len(t.class)+len(refs)),
		full:      make([]string, len(t.full), len(t.full)+len(refs)),
		lastPairs: t.lastPairs.Clone(), pairs: t.pairs.Clone(), keptRefs: len(t.class), keptPairs: t.Scored(),
	}
	copy(u.class, t.class)
	copy(u.full, t.full)
	if len(t.full) == 0 {
		u.ids = flat.NewStrings(len(refs))
	} else {
		u.ids = t.ids.Clone()
	}
	fullOf := func(c int32) string { return u.full[c] }
	for i := range refs {
		_, rendered := similarity.ParseNameRendered(refs[i].Name)
		c, known := u.ids.ID(rendered, int32(len(u.full)), fullOf)
		if !known {
			u.full = append(u.full, rendered)
		}
		u.class = append(u.class, c)
	}

	classes, opened := len(u.full), len(u.full)-len(t.full)
	u.names = append(make([]similarity.Name, 0, classes), t.names...)
	u.self = append(make([]uint8, 0, classes), t.self...)
	u.last = append(make([]int32, 0, classes), t.last...)
	u.lasts = append(make([]string, 0, len(t.lasts)+opened), t.lasts...)
	if len(t.lasts) == 0 {
		u.lastIDs = flat.NewStrings(opened)
	} else {
		u.lastIDs = t.lastIDs.Clone()
	}
	lastOf := func(l int32) string { return u.lasts[l] }
	for _, rendered := range u.full[len(t.full):] {
		name := similarity.Name{Last: rendered} // the parsed name rendered is
		if i := strings.LastIndexByte(rendered, ' '); i >= 0 {
			name = similarity.Name{First: rendered[:i], Last: rendered[i+1:]}
		}
		u.names = append(u.names, name)
		// Decided by string equality alone, so worth no cache slot;
		// LevelNone for a name with no last token.
		u.self = append(u.self, uint8(similarity.NameLevel(name, name)))
		l, known := u.lastIDs.ID(name.Last, int32(len(u.lasts)), lastOf)
		if !known {
			u.lasts = append(u.lasts, name.Last)
		}
		u.last = append(u.last, l)
	}
	return u
}

// Classes returns the number of distinct parsed names.
func (t *NameTable) Classes() int { return len(t.names) }

// Class returns the name class of reference r.
func (t *NameTable) Class(r RefID) int32 { return t.class[r] }

// Normalized returns reference r's name in canonical "first last" form
// (ParseName(name).String()): the string the canopy q-grams are cut from.
func (t *NameTable) Normalized(r RefID) string { return t.full[t.class[r]] }

// Lasts returns the number of distinct last names.
func (t *NameTable) Lasts() int { return len(t.lasts) }

// Last returns the last-name id of class c.
func (t *NameTable) Last(c int32) int32 { return t.last[c] }

// Level returns the name-similarity level of classes x and y, in either
// order: NameLevel of their names, settled by their last names' level
// (LastLevel) unless both are spelled out and their last names similar.
// A miss of either memo costs its kernel and nothing else: the names are
// already parsed and rendered.
func (t *NameTable) Level(x, y int32) similarity.Level {
	if x == y {
		return similarity.Level(t.self[x])
	}
	a, b := t.names[x], t.names[y]
	if ll := t.LastLevel(t.last[x], t.last[y]); ll == similarity.LevelNone || a.Abbreviated() || b.Abbreviated() {
		if !similarity.InitialsAgree(a, b) {
			return similarity.LevelNone
		}
		return ll
	}
	return memo(t.pairs, flat.Pair(x, y), func() similarity.Level {
		return similarity.NameLevelRendered(a, b, t.full[x], t.full[y])
	})
}

// LastLevel returns similarity.LastLevel of last names u and v, in either
// order, scoring each pair of distinct last names once.
func (t *NameTable) LastLevel(u, v int32) similarity.Level {
	if u == v {
		return similarity.LastLevel(t.lasts[u], t.lasts[u]) // string equality decides it
	}
	return memo(t.lastPairs, flat.Pair(u, v), func() similarity.Level {
		return similarity.LastLevel(t.lasts[u], t.lasts[v])
	})
}

// memo returns the level pairs holds for key, scoring and storing it on a
// miss.
func memo(pairs *flat.Table[struct{}], key uint64, score func() similarity.Level) similarity.Level {
	i, ok := pairs.Find(key)
	if ok {
		return similarity.Level(pairs.Word(i) & levelMask)
	}
	l := score()
	pairs.Insert(i, key|uint64(l), struct{}{})
	return l
}

// RefLevel is Level for two references.
func (t *NameTable) RefLevel(a, b RefID) similarity.Level {
	return t.Level(t.class[a], t.class[b])
}

// Scored returns how many kernel evaluations the table has made so far —
// distinct last-name pairs scored by LastLevel plus distinct spelled-out
// class pairs scored by NameLevel, since a scored pair is never scored
// again — counting those of the tables it continues.
func (t *NameTable) Scored() int { return t.lastPairs.Len() + t.pairs.Len() }

// Kept returns how many references and scored pairs of both kinds the table
// took over from the table Extend continued (zero for a table built fresh):
// this table parsed len(references) − refs names and made Scored() − pairs
// kernel calls of its own.
func (t *NameTable) Kept() (refs, pairs int) { return t.keptRefs, t.keptPairs }

// ScoredPair is one kernel evaluation of a NameTable: a pair of distinct
// last-name ids when Last is set (LastLevel), else of distinct class ids
// (Level), smaller id first.
type ScoredPair struct {
	X, Y int32
	Last bool
}

// ScoredPairs yields every pair the table has scored, of both kinds, with
// its level, in no particular order.
func (t *NameTable) ScoredPairs() iter.Seq2[ScoredPair, similarity.Level] {
	return func(yield func(ScoredPair, similarity.Level) bool) {
		for i, pairs := range []*flat.Table[struct{}]{t.lastPairs, t.pairs} {
			for w := range pairs.All() {
				if !yield(ScoredPair{int32(w >> 33), int32(w>>2) & (1<<31 - 1), i == 0}, similarity.Level(w&levelMask)) {
					return
				}
			}
		}
	}
}

// levelMask selects a level, two bits, from a word of the scored pairs.
const levelMask = 3
