package canopy

import (
	"repro/internal/bib"
	"repro/internal/core"
	"repro/internal/similarity"
)

// classGroups groups one neighborhood's members by name class, and the
// classes by last name — the ids and levels are the dataset's
// (bib.Dataset.Names), so whatever one blocking step scores the next finds
// scored — in scratch reused from one neighborhood to the next.
type classGroups struct {
	t       *bib.NameTable
	slot    []int32 // class -> its group, where mark[class] == gen
	mark    []int32 // class -> gen of the last neighborhood holding it
	lslot   []int32 // last name -> its bucket, where lmark[name] == gen
	lmark   []int32 // last name -> gen of the last neighborhood holding it
	gen     int32
	members [][]core.EntityID // group -> members, in the neighborhood's order
	classes []int32           // group -> its class
	buckets [][]int32         // bucket -> its groups, whose classes share a last name
}

func newClassGroups(t *bib.NameTable) *classGroups {
	n, l := t.Classes(), t.Lasts()
	return &classGroups{t: t, slot: make([]int32, n), mark: make([]int32, n), lslot: make([]int32, l), lmark: make([]int32, l)}
}

// similarPairs calls fn(a, b, l), a < b, for every pair of distinct members
// of set whose names have a non-zero level l — each pair once, in no
// particular order. Two names are similar only if their last names are
// (bib.NameTable.Level), so it looks one last-name level up per pair of
// last names present in set, then one class level per pair of classes that
// share a last name or have similar ones, and walks member products only
// under the non-zero ones: a neighborhood costs its last-name pairs, the
// class pairs under the similar ones, and its output.
func (g *classGroups) similarPairs(set []core.EntityID, fn func(a, b core.EntityID, l similarity.Level)) {
	g.gen++
	n, nb := int32(0), int32(0)
	for _, e := range set {
		c := g.t.Class(e)
		if g.mark[c] != g.gen {
			g.mark[c], g.slot[c] = g.gen, n
			if int(n) == len(g.members) {
				g.members, g.classes = append(g.members, nil), append(g.classes, 0)
			}
			g.members[n], g.classes[n] = g.members[n][:0], c
			u := g.t.Last(c)
			if g.lmark[u] != g.gen {
				g.lmark[u], g.lslot[u] = g.gen, nb
				if int(nb) == len(g.buckets) {
					g.buckets = append(g.buckets, nil)
				}
				g.buckets[nb] = g.buckets[nb][:0]
				nb++
			}
			g.buckets[g.lslot[u]] = append(g.buckets[g.lslot[u]], n)
			n++
		}
		g.members[g.slot[c]] = append(g.members[g.slot[c]], e)
	}
	for b, xs := range g.buckets[:nb] {
		for k, x := range xs {
			for _, y := range xs[k:] {
				g.emit(x, y, fn)
			}
		}
		u := g.t.Last(g.classes[xs[0]])
		for _, ys := range g.buckets[b+1 : nb] {
			if g.t.LastLevel(u, g.t.Last(g.classes[ys[0]])) == similarity.LevelNone {
				continue
			}
			for _, x := range xs {
				for _, y := range ys {
					g.emit(x, y, fn)
				}
			}
		}
	}
}

// emit calls fn for the member pairs of groups x and y — those within x
// when x == y — at the level of their classes, if it is non-zero.
func (g *classGroups) emit(x, y int32, fn func(a, b core.EntityID, l similarity.Level)) {
	l := g.t.Level(g.classes[x], g.classes[y])
	if l == similarity.LevelNone {
		return
	}
	xs, ys := g.members[x], g.members[y]
	for k, a := range xs {
		if x == y {
			ys = xs[k+1:]
		}
		for _, b := range ys {
			fn(min(a, b), max(a, b), l)
		}
	}
}
