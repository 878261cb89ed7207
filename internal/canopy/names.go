package canopy

import (
	"repro/internal/bib"
	"repro/internal/core"
	"repro/internal/similarity"
)

// nameTable is a dataset's references quotiented by parsed name, and the
// only place blocking calls similarity.NameLevel. Every reference is parsed
// once and given the dense id of its name's class; the level of two
// references is the level of their classes, cached per class pair. That is
// sound because NameLevel reads nothing but the two parsed names: references
// of one class are interchangeable in every similarity test, so a
// neighborhood's name-similar pairs are the member products of its similar
// class pairs, and a corpus with few distinct names (HEPTH-like: 1461
// references, 370 names) needs few evaluations.
type nameTable struct {
	class []int32           // reference -> class of its parsed name
	names []similarity.Name // class -> the parsed name its references share
	// levels caches NameLevel by UNORDERED class pair, lower id in the high
	// word. NameLevel is symmetric (see its comment; FuzzNameLevelSymmetric
	// pins it), so the entry does not depend on which reference of a pair
	// has the lower id.
	levels map[uint64]similarity.Level
}

func newNameTable(d *bib.Dataset) *nameTable {
	t := &nameTable{class: make([]int32, d.NumRefs()), levels: map[uint64]similarity.Level{}}
	ids := map[similarity.Name]int32{}
	for i := range d.Refs {
		name := similarity.ParseName(d.Refs[i].Name)
		c, ok := ids[name]
		if !ok {
			c = int32(len(t.names))
			ids[name] = c
			t.names = append(t.names, name)
		}
		t.class[i] = c
	}
	return t
}

// level returns the name-similarity level of classes x and y (x == y gives
// a name's level with itself, which is LevelNone for a name with no last
// token).
func (t *nameTable) level(x, y int32) similarity.Level {
	if y < x {
		x, y = y, x
	}
	k := uint64(x)<<32 | uint64(y)
	v, ok := t.levels[k]
	if !ok {
		v = similarity.NameLevel(t.names[x], t.names[y])
		t.levels[k] = v
	}
	return v
}

// refLevel is level for two references.
func (t *nameTable) refLevel(a, b core.EntityID) similarity.Level {
	return t.level(t.class[a], t.class[b])
}

// classGroups groups one neighborhood's members by name class, in scratch
// reused from one neighborhood to the next.
type classGroups struct {
	t       *nameTable
	slot    []int32 // class -> its group, where mark[class] == gen
	mark    []int32 // class -> gen of the last neighborhood holding it
	gen     int32
	members [][]core.EntityID // group -> members, in the neighborhood's order
}

func newClassGroups(t *nameTable) *classGroups {
	return &classGroups{t: t, slot: make([]int32, len(t.names)), mark: make([]int32, len(t.names))}
}

// similarPairs calls fn(a, b), a < b, for every pair of distinct members of
// set whose names have a non-zero level — each pair once, in no particular
// order. It looks one level up per pair of classes present in set and walks
// member products only under the non-zero ones, so a neighborhood of many
// references and few names costs its class pairs plus its output.
func (g *classGroups) similarPairs(set []core.EntityID, fn func(a, b core.EntityID)) {
	g.gen++
	n := 0
	for _, e := range set {
		c := g.t.class[e]
		if g.mark[c] != g.gen {
			g.mark[c] = g.gen
			g.slot[c] = int32(n)
			if n == len(g.members) {
				g.members = append(g.members, nil)
			}
			g.members[n] = g.members[n][:0]
			n++
		}
		g.members[g.slot[c]] = append(g.members[g.slot[c]], e)
	}
	for i, xs := range g.members[:n] {
		cx := g.t.class[xs[0]]
		if len(xs) > 1 && g.t.level(cx, cx) != similarity.LevelNone {
			for k, x := range xs {
				for _, y := range xs[k+1:] {
					fn(min(x, y), max(x, y))
				}
			}
		}
		for _, ys := range g.members[i+1 : n] {
			if g.t.level(cx, g.t.class[ys[0]]) == similarity.LevelNone {
				continue
			}
			for _, x := range xs {
				for _, y := range ys {
					fn(min(x, y), max(x, y))
				}
			}
		}
	}
}
