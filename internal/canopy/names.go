package canopy

import (
	"repro/internal/bib"
	"repro/internal/core"
	"repro/internal/similarity"
)

// classGroups groups one neighborhood's members by name class — the classes
// and their levels are the dataset's (bib.Dataset.Names), so whatever one
// blocking step scores the next finds scored — in scratch reused from one
// neighborhood to the next.
type classGroups struct {
	t       *bib.NameTable
	slot    []int32 // class -> its group, where mark[class] == gen
	mark    []int32 // class -> gen of the last neighborhood holding it
	gen     int32
	members [][]core.EntityID // group -> members, in the neighborhood's order
}

func newClassGroups(t *bib.NameTable) *classGroups {
	return &classGroups{t: t, slot: make([]int32, t.Classes()), mark: make([]int32, t.Classes())}
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
		c := g.t.Class(e)
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
		cx := g.t.Class(xs[0])
		if len(xs) > 1 && g.t.Level(cx, cx) != similarity.LevelNone {
			for k, x := range xs {
				for _, y := range xs[k+1:] {
					fn(min(x, y), max(x, y))
				}
			}
		}
		for _, ys := range g.members[i+1 : n] {
			if g.t.Level(cx, g.t.Class(ys[0])) == similarity.LevelNone {
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
