package serve

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	cem "repro"
	"repro/internal/bib"
	"repro/internal/unionfind"
	"repro/match"
)

// committedOld is the read model as newCommitted built it before the CSR
// layout — maps of per-id slices, each sorted by a closure — kept verbatim
// as the oracle of Lookup and Cluster.
type committedOld struct {
	seq       int
	keys      map[string][]int32
	names     []string
	partners  map[int32][]int32
	clusterOf []int32
	clusters  map[int32][]int32
}

func newCommittedOld(seq int, res *cem.PipelineResult) *committedOld {
	c := &committedOld{
		seq:      seq,
		keys:     map[string][]int32{},
		partners: map[int32][]int32{},
		clusters: map[int32][]int32{},
	}
	refs := res.Experiment.Dataset.Refs
	c.names = make([]string, len(refs))
	for i := range refs {
		c.names[i] = refs[i].Name
		c.keys[refs[i].Name] = append(c.keys[refs[i].Name], int32(i))
	}
	dsu := unionfind.New(len(refs))
	for p := range res.Matches.All() {
		c.partners[p.A] = append(c.partners[p.A], p.B)
		c.partners[p.B] = append(c.partners[p.B], p.A)
		dsu.Union(int(p.A), int(p.B))
	}
	for id := range c.partners {
		sort.Slice(c.partners[id], func(i, j int) bool { return c.partners[id][i] < c.partners[id][j] })
	}
	c.clusterOf = make([]int32, len(refs))
	for i := range refs {
		root := int32(dsu.Find(i))
		c.clusterOf[i] = root
	}
	for i := range refs {
		root := c.clusterOf[i]
		if len(c.partners[int32(i)]) > 0 {
			c.clusters[root] = append(c.clusters[root], int32(i))
		}
	}
	for root := range c.clusters {
		sort.Slice(c.clusters[root], func(i, j int) bool { return c.clusters[root][i] < c.clusters[root][j] })
	}
	return c
}

func (c *committedOld) refViews(ids []int32) []RefView {
	out := make([]RefView, len(ids))
	for i, id := range ids {
		out[i] = RefView{ID: id, Key: c.names[id]}
	}
	return out
}

func (c *committedOld) clusterMembers(id int32) []int32 {
	if members, ok := c.clusters[c.clusterOf[id]]; ok {
		return members
	}
	return []int32{id}
}

func (c *committedOld) lookup(key string) (RecordView, bool) {
	ids, ok := c.keys[key]
	if !ok {
		return RecordView{}, false
	}
	v := RecordView{Key: key, Seq: c.seq, Entities: make([]EntityView, len(ids))}
	for i, id := range ids {
		v.Entities[i] = EntityView{
			ID:      id,
			Key:     key,
			Matches: c.refViews(c.partners[id]),
			Cluster: c.refViews(c.clusterMembers(id)),
		}
	}
	return v, true
}

func (c *committedOld) cluster(key string) (ClusterView, bool) {
	ids, ok := c.keys[key]
	if !ok {
		return ClusterView{}, false
	}
	v := ClusterView{Key: key, Seq: c.seq}
	seen := map[int32]bool{}
	for _, id := range ids {
		root := c.clusterOf[id]
		if seen[root] {
			continue
		}
		seen[root] = true
		v.Clusters = append(v.Clusters, c.refViews(c.clusterMembers(id)))
	}
	return v, true
}

// TestCommittedMatchesOldBuilder: the CSR read model answers Lookup and
// Cluster for every key exactly as the map-based builder did, on match
// sets with no entities, with no matches, with one cluster over every
// entity, and random ones over keys that several references share, some of
// them unmatched.
func TestCommittedMatchesOldBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	result := func(keys []string, pairs []match.Pair) *cem.PipelineResult {
		d := &match.Dataset{}
		for _, k := range keys {
			d.Refs = append(d.Refs, bib.Reference{Name: k})
		}
		return &cem.PipelineResult{
			Result:     &cem.Result{Result: &match.Result{Matches: match.NewPairSet(pairs...)}},
			Experiment: &cem.Experiment{Dataset: d},
		}
	}
	randomKeys := func(n, distinct int) []string {
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("key-%d", rng.Intn(distinct))
		}
		return keys
	}
	type matchSet struct {
		name  string
		keys  []string
		pairs []match.Pair
	}
	sets := []matchSet{{name: "no entities"}}
	for _, n := range []int{1, 7, 60} {
		keys := randomKeys(n, max(1, n/3))
		sets = append(sets, matchSet{name: fmt.Sprintf("singletons-%d", n), keys: keys})
		var giant []match.Pair
		for b := 1; b < n; b++ {
			giant = append(giant, match.MakePair(int32(rng.Intn(b)), int32(b)))
		}
		sets = append(sets, matchSet{name: fmt.Sprintf("one cluster-%d", n), keys: keys, pairs: giant})
		for trial := range 5 {
			var pairs []match.Pair
			for range rng.Intn(2 * n) {
				// The first half of the ids only: keys the second half shares
				// with them belong to unmatched references.
				a, b := int32(rng.Intn(max(1, n/2))), int32(rng.Intn(max(1, n/2)))
				if a != b {
					pairs = append(pairs, match.MakePair(a, b))
				}
			}
			sets = append(sets, matchSet{name: fmt.Sprintf("random-%d-%d", n, trial), keys: keys, pairs: pairs})
		}
	}
	for _, s := range sets {
		res := result(s.keys, s.pairs)
		got, want := newCommitted(3, res), newCommittedOld(3, res)
		if got.Entities() != len(s.keys) {
			t.Fatalf("%s: %d entities, want %d", s.name, got.Entities(), len(s.keys))
		}
		for _, key := range append(s.keys, "no-such-key") {
			gl, gok := got.Lookup(key)
			wl, wok := want.lookup(key)
			if gok != wok || !reflect.DeepEqual(gl, wl) {
				t.Fatalf("%s: Lookup(%q) = %v %+v, the old builder gives %v %+v", s.name, key, gok, gl, wok, wl)
			}
			gc, gok := got.Cluster(key)
			wc, wok := want.cluster(key)
			if gok != wok || !reflect.DeepEqual(gc, wc) {
				t.Fatalf("%s: Cluster(%q) = %v %+v, the old builder gives %v %+v", s.name, key, gok, gc, wok, wc)
			}
		}
	}
}
