package bib

import "repro/internal/similarity"

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
// Papers: get it from Dataset.Names, never store it.
type NameTable struct {
	class []int32           // reference -> class of its parsed name
	names []similarity.Name // class -> the parsed name its references share
	full  []string          // class -> names[class].String(), rendered once
	self  []uint8           // class -> the level of the name with itself
	pairs levelCache        // unordered pair of distinct classes -> level
}

func newNameTable(refs []Reference) *NameTable {
	t := &NameTable{class: make([]int32, len(refs)), pairs: newLevelCache()}
	ids := map[similarity.Name]int32{}
	for i := range refs {
		name := similarity.ParseName(refs[i].Name)
		c, ok := ids[name]
		if !ok {
			c = int32(len(t.names))
			ids[name] = c
			t.names = append(t.names, name)
			t.full = append(t.full, name.String())
			// Decided by string equality alone, so worth no cache slot;
			// LevelNone for a name with no last token.
			t.self = append(t.self, uint8(similarity.NameLevel(name, name)))
		}
		t.class[i] = c
	}
	return t
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
	key := pairKey(x, y)
	i := t.pairs.find(key)
	if e := t.pairs.slots[i]; e != 0 {
		return similarity.Level(e & levelMask)
	}
	l := similarity.NameLevelRendered(t.names[x], t.names[y], t.full[x], t.full[y])
	t.pairs.fill(i, key|uint64(l))
	return l
}

// RefLevel is Level for two references.
func (t *NameTable) RefLevel(a, b RefID) similarity.Level {
	return t.Level(t.class[a], t.class[b])
}

// Scored returns how many distinct class pairs Level has scored so far —
// the number of NameLevel evaluations the dataset has cost, since a scored
// pair is never scored again.
func (t *NameTable) Scored() int { return t.pairs.n }

// levelCache is the set of scored class pairs: open addressing over one
// word per pair, which holds the pair and its level. Class ids are below
// 2^31 and a level is two bits, so an entry is x<<33 | y<<2 | level with
// x < y — never 0, which marks an empty slot (y >= 1). NameLevel is
// symmetric (FuzzNameLevelSymmetric pins it), so the entry does not depend
// on the order the pair was asked in. The table is sized by what it holds —
// three eighths to three quarters full once grown, 11-21 bytes per scored
// pair — not by the square of the class count.
type levelCache struct {
	slots []uint64 // power-of-two length
	n     int      // occupied slots
	shift uint     // 64 - log2(len(slots)): a hash's top bits index slots
}

const (
	levelMask          = 3
	levelCacheMinShift = 6 // a new cache has 1<<6 slots
)

func newLevelCache() levelCache {
	return levelCache{slots: make([]uint64, 1<<levelCacheMinShift), shift: 64 - levelCacheMinShift}
}

// pairKey is the entry of the unordered pair {x, y}, x != y, at level 0.
func pairKey(x, y int32) uint64 {
	if y < x {
		x, y = y, x
	}
	return uint64(x)<<33 | uint64(y)<<2
}

// find returns the slot holding key's pair or, if the pair is not cached,
// the empty slot where fill must put it. There always is one: fill keeps a
// quarter of the slots empty.
func (c *levelCache) find(key uint64) int {
	mask := len(c.slots) - 1
	// Fibonacci hashing: consecutive class ids differ in the key's low and
	// middle bits, which the multiplication spreads into the top ones.
	for i := int(key * 0x9E3779B97F4A7C15 >> c.shift); ; i = (i + 1) & mask {
		if e := c.slots[i]; e == 0 || e&^levelMask == key {
			return i
		}
	}
}

// fill stores entry e in the empty slot i that find returned for it, and
// doubles the table once it is three quarters full.
func (c *levelCache) fill(i int, e uint64) {
	c.slots[i] = e
	c.n++
	if c.n*4 < len(c.slots)*3 {
		return
	}
	old := c.slots
	c.slots = make([]uint64, 2*len(old))
	c.shift--
	for _, e := range old {
		if e != 0 {
			c.slots[c.find(e&^levelMask)] = e
		}
	}
}
