package bib

import (
	"iter"
	"slices"

	"repro/internal/flat"
	"repro/internal/similarity"
)

// NameTable is a dataset's references quotiented by parsed name, and the
// only place the blocking stage calls the NameLevel kernel. Every reference
// is parsed once and given the dense id of its name's class (ids in order
// of first appearance, so appending references never renumbers a class);
// the level of two references is the level of their classes, scored once
// per unordered class pair and cached. That is sound because NameLevel
// reads nothing but the two parsed names: references of one class are
// interchangeable in every similarity test, so a neighborhood's
// name-similar pairs are the member products of its similar class pairs,
// and a corpus with few distinct names (HEPTH-like: 1461 references, 370
// names) needs few evaluations.
//
// The table is derived state of Dataset.Refs, exactly as Coauthor is of
// Papers: get it from Dataset.Names, never store it. Dataset.Extend gives
// its result a continuation of the table (extend), so a stream of extended
// datasets parses each reference and scores each class pair once.
type NameTable struct {
	class []int32           // reference -> class of its parsed name
	names []similarity.Name // class -> the parsed name its references share
	full  []string          // class -> names[class].String(), rendered once
	self  []uint8           // class -> the level of the name with itself
	// The scored pairs of distinct classes: one word per pair, its
	// flat.Pair key with the level in the two payload bits. NameLevel is
	// symmetric (FuzzNameLevelSymmetric pins it), so the entry does not
	// depend on the order the pair was asked in. The table is sized by what
	// it holds — three eighths to three quarters full once grown, 11-21
	// bytes per scored pair — not by the square of the class count.
	pairs               *flat.Table[struct{}]
	keptRefs, keptPairs int // taken over by extend: references parsed, pairs scored
}

func newNameTable(refs []Reference) *NameTable {
	return (&NameTable{pairs: flat.New[struct{}](0, levelMask)}).extend(refs)
}

// extend returns the table of t's references followed by refs, leaving t
// as it was: t's slices are shared up to their length and only appended to
// past it, and its scored pairs are copied.
func (t *NameTable) extend(refs []Reference) *NameTable {
	u := &NameTable{
		class: append(make([]int32, 0, len(t.class)+len(refs)), t.class...),
		names: slices.Clip(t.names), full: slices.Clip(t.full), self: slices.Clip(t.self),
		pairs: t.pairs.Clone(), keptRefs: len(t.class), keptPairs: t.pairs.Len(),
	}
	// Rebuilt, not kept and cloned: hashing the names into a presized map
	// measured cheaper than maps.Clone (Go 1.24, 400-5 000 classes).
	ids := make(map[similarity.Name]int32, len(t.names)+len(refs))
	for c, name := range t.names {
		ids[name] = int32(c)
	}
	for i := range refs {
		name := similarity.ParseName(refs[i].Name)
		c, ok := ids[name]
		if !ok {
			c = int32(len(u.names))
			ids[name] = c
			u.names = append(u.names, name)
			u.full = append(u.full, name.String())
			// Decided by string equality alone, so worth no cache slot;
			// LevelNone for a name with no last token.
			u.self = append(u.self, uint8(similarity.NameLevel(name, name)))
		}
		u.class = append(u.class, c)
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

// Level returns the name-similarity level of classes x and y, in either
// order. A miss costs the kernel's Jaro-Winkler scores and nothing else:
// both names are already parsed and rendered.
func (t *NameTable) Level(x, y int32) similarity.Level {
	if x == y {
		return similarity.Level(t.self[x])
	}
	key := flat.Pair(x, y)
	i, ok := t.pairs.Find(key)
	if ok {
		return similarity.Level(t.pairs.Word(i) & levelMask)
	}
	l := similarity.NameLevelRendered(t.names[x], t.names[y], t.full[x], t.full[y])
	t.pairs.Insert(i, key|uint64(l), struct{}{})
	return l
}

// RefLevel is Level for two references.
func (t *NameTable) RefLevel(a, b RefID) similarity.Level {
	return t.Level(t.class[a], t.class[b])
}

// Scored returns how many distinct class pairs Level has scored so far —
// the number of NameLevel evaluations the dataset has cost, since a scored
// pair is never scored again — counting those of the tables it continues.
func (t *NameTable) Scored() int { return t.pairs.Len() }

// Kept returns how many references and scored class pairs the table took
// over from the table Extend continued (zero for a table built fresh): this
// table parsed len(references) − refs names and made Scored() − pairs
// kernel calls of its own.
func (t *NameTable) Kept() (refs, pairs int) { return t.keptRefs, t.keptPairs }

// ScoredPairs yields every class pair Level has scored, smaller class
// first, with its level, in no particular order.
func (t *NameTable) ScoredPairs() iter.Seq2[[2]int32, similarity.Level] {
	return func(yield func([2]int32, similarity.Level) bool) {
		for w := range t.pairs.All() {
			if !yield([2]int32{int32(w >> 33), int32(w>>2) & (1<<31 - 1)}, similarity.Level(w&levelMask)) {
				return
			}
		}
	}
}

// levelMask selects a level, two bits, from a word of the scored pairs.
const levelMask = 3
