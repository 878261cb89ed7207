package serve

import (
	"fmt"
	"slices"
	"strings"
	"time"

	cem "repro"
	"repro/internal/flat"
	"repro/internal/unionfind"
)

// Committed is one immutable committed state of the service: the
// pipeline result of the last applied batch plus the derived lookup
// structures read endpoints serve from. Commits replace the service's
// current *Committed through an atomic pointer swap, so any number of
// concurrent readers observe either the state before a batch or the
// state after it — never a torn intermediate (snapshot isolation). All
// fields are written once, before publication, and never mutated.
type Committed struct {
	// Seq is the commit sequence number: how many batches produced this
	// state. The empty (pre-first-batch) state has Seq 0 and a nil
	// Result.
	Seq int
	// Result is the pipeline result of the last update (nil at Seq 0).
	Result *cem.PipelineResult
	// At is the commit wall-clock time.
	At time.Time

	// keys maps a record key to the entity ids (reference indices, in
	// arrival order) that carry it; names is the inverse.
	keys  map[string][]int32
	names []string
	// partners is the adjacency of the match set in CSR form: entity id's
	// matched entity ids, ascending, are partners[partnerOff[id]:partnerOff[id+1]].
	partnerOff, partners []int32
	// clusterOf[id] is the id's cluster root under the transitive
	// closure of the match set; the members of root's cluster, ascending,
	// are clusters[clusterOff[root]:clusterOff[root+1]]. Singleton entities
	// are their own root with an empty range, answered on lookup (see
	// clusterMembers).
	clusterOf            []int32
	clusterOff, clusters []int32
}

// emptyCommitted is the state before the first batch.
func emptyCommitted() *Committed {
	return &Committed{At: time.Now(), keys: map[string][]int32{}}
}

// newCommitted derives the read structures from a pipeline result.
func newCommitted(seq int, res *cem.PipelineResult) *Committed {
	c := &Committed{Seq: seq, Result: res, At: time.Now(), keys: map[string][]int32{}}
	refs := res.Experiment.Dataset.Refs
	n := len(refs)
	c.names = make([]string, n)
	for i := range refs {
		c.names[i] = refs[i].Name
		c.keys[refs[i].Name] = append(c.keys[refs[i].Name], int32(i))
	}
	c.partnerOff, c.partners = flat.Bucket(n, func(yield func(int32, int32)) {
		for p := range res.Matches.All() {
			yield(p.A, p.B)
			yield(p.B, p.A)
		}
	})
	dsu := unionfind.New(n)
	for id := range n {
		row := c.partnersOf(int32(id))
		slices.Sort(row)
		for _, q := range row {
			if int(q) > id {
				dsu.Union(id, int(q))
			}
		}
	}
	c.clusterOf = make([]int32, n)
	for i := range n {
		c.clusterOf[i] = int32(dsu.Find(i))
	}
	// Materialize only non-singleton clusters, members in ascending order;
	// singleton lookups answer from clusterOf directly.
	c.clusterOff, c.clusters = flat.Bucket(n, func(yield func(int32, int32)) {
		for i := range int32(n) {
			if len(c.partnersOf(i)) > 0 {
				yield(c.clusterOf[i], i)
			}
		}
	})
	return c
}

// partnersOf returns id's matched entity ids, ascending.
func (c *Committed) partnersOf(id int32) []int32 {
	return c.partners[c.partnerOff[id]:c.partnerOff[id+1]]
}

// Records returns the number of records in this state.
func (c *Committed) Records() int {
	if c.Result == nil {
		return 0
	}
	return c.Result.Records
}

// Matches returns the number of match pairs in this state.
func (c *Committed) Matches() int {
	if c.Result == nil {
		return 0
	}
	return c.Result.Matches.Len()
}

// Entities returns the number of entity references in this state.
func (c *Committed) Entities() int { return len(c.names) }

// RefView names one entity reference.
type RefView struct {
	ID  int32  `json:"id"`
	Key string `json:"key"`
}

// EntityView is the full read model of one entity reference: its direct
// match partners and the cluster (transitive closure component) it
// belongs to, self included.
type EntityView struct {
	ID      int32     `json:"id"`
	Key     string    `json:"key"`
	Matches []RefView `json:"matches"`
	Cluster []RefView `json:"cluster"`
}

// RecordView answers a record-key lookup: every entity reference that
// carries the key, against one committed snapshot.
type RecordView struct {
	Key      string       `json:"key"`
	Seq      int          `json:"seq"`
	Entities []EntityView `json:"entities"`
}

// ClusterView answers a cluster lookup: the union of the clusters of
// every entity carrying the key (typically one; distinct clusters appear
// when the same surface string names several unmatched references).
type ClusterView struct {
	Key      string      `json:"key"`
	Seq      int         `json:"seq"`
	Clusters [][]RefView `json:"clusters"`
}

// refViews maps ids to id+key views.
func (c *Committed) refViews(ids []int32) []RefView {
	out := make([]RefView, len(ids))
	for i, id := range ids {
		out[i] = RefView{ID: id, Key: c.names[id]}
	}
	return out
}

// Lookup resolves a record key to its entities, matches and clusters.
// The second return is false when the key is unknown to this snapshot.
func (c *Committed) Lookup(key string) (RecordView, bool) {
	ids, ok := c.keys[key]
	if !ok {
		return RecordView{}, false
	}
	v := RecordView{Key: key, Seq: c.Seq, Entities: make([]EntityView, len(ids))}
	for i, id := range ids {
		v.Entities[i] = EntityView{
			ID:      id,
			Key:     key,
			Matches: c.refViews(c.partnersOf(id)),
			Cluster: c.refViews(c.clusterMembers(id)),
		}
	}
	return v, true
}

// clusterMembers returns the ids in id's transitive-closure component,
// ascending, always including id itself.
func (c *Committed) clusterMembers(id int32) []int32 {
	root := c.clusterOf[id]
	if members := c.clusters[c.clusterOff[root]:c.clusterOff[root+1]]; len(members) > 0 {
		return members
	}
	return []int32{id}
}

// Cluster resolves a record key to the distinct clusters of its
// entities. False when the key is unknown.
func (c *Committed) Cluster(key string) (ClusterView, bool) {
	ids, ok := c.keys[key]
	if !ok {
		return ClusterView{}, false
	}
	v := ClusterView{Key: key, Seq: c.Seq}
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

// RenderMatches serializes the snapshot's match set in the repo's
// canonical fixture form — one "a b" pair per line, sorted, with a count
// header — so a served state can be diffed byte-for-byte against an
// offline run (the load harness's identity check).
func (c *Committed) RenderMatches() string {
	var b strings.Builder
	if c.Result == nil {
		fmt.Fprintf(&b, "# 0 matches\n")
		return b.String()
	}
	pairs := c.Result.Matches.Sorted()
	fmt.Fprintf(&b, "# %d matches\n", len(pairs))
	for _, p := range pairs {
		fmt.Fprintf(&b, "%d %d\n", p.A, p.B)
	}
	return b.String()
}
