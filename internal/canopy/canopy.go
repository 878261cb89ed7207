// Package canopy builds covers (§4 of the paper): it implements the
// Canopies algorithm of McCallum, Nigam & Ungar (reference [13]) over a
// cheap q-gram similarity with an inverted index, and then turns the
// canopies into a *total cover* (Definition 7) by expanding every
// neighborhood with its boundary w.r.t. the Coauthor relation — exactly
// the construction §4 describes ("we construct a total cover by first
// constructing a total cover over Similar using Canopies, and then taking
// the boundary of each neighborhood with respect to other relations").
//
// Wherever blocking needs the discretized name similarity — the pairs that
// drive aligned expansion, the candidate pairs handed to the matchers — it
// asks the dataset's name table (bib.Dataset.Names): references are grouped
// by parsed name, the level is evaluated once per pair of distinct names per
// dataset — BuildCover, Index.Add and CandidatePairs all read the one table,
// so what cover construction scored candidate enumeration finds scored — and
// reference pairs are only walked under name pairs that are similar
// (classGroups, names.go).
package canopy

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/bib"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/similarity"
)

// Config controls canopy construction.
type Config struct {
	// Loose is the cheap-similarity threshold for joining a canopy
	// (T2 in McCallum et al.; loose < tight).
	Loose float64
	// Tight is the threshold beyond which a point is considered well
	// covered and removed from the seed pool (T1).
	Tight float64
	// Q is the q-gram size of the cheap similarity.
	Q int
	// MaxAligned bounds how much relational context each neighborhood
	// absorbs: for every name-similar pair inside a canopy core, up to
	// MaxAligned *aligned coauthor pairs* (the (c1, c2) combinations that
	// ground the MLN's coauthor rule) are pulled into the neighborhood.
	// This is the paper's "sizes of neighborhoods are bounded" regime:
	// with a small cap, a collective clique of correlated pairs is
	// fragmented across the neighborhoods of its members — exactly the
	// Figure 2 situation that simple and maximal messages reassemble.
	// Ignored when FullBoundary is set.
	MaxAligned int
	// FullBoundary switches total-cover construction to full boundary
	// expansion: every neighborhood absorbs all relation neighbors of its
	// members, making essentially all relational evidence local. Kept for
	// ablation: it trades much larger neighborhoods (and a much more
	// expensive matcher) for less message traffic.
	FullBoundary bool
	// MaxNeighborhood, when > 0, bounds the size of every canopy core:
	// a canopy keeps its seed plus the MaxNeighborhood-1 most similar
	// members (ties broken by ascending id). Records dropped by the cap
	// stay in the seed pool, so they still seed canopies of their own and
	// the result remains a cover. This is the paper's "sizes of
	// neighborhoods are bounded" knob at the blocking stage; the later
	// relational expansion (MaxAligned, totality patching) may still grow
	// neighborhoods past the cap by a bounded amount.
	MaxNeighborhood int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Loose <= 0 || c.Loose > 1:
		return fmt.Errorf("canopy: Loose = %v out of (0,1]", c.Loose)
	case c.Tight < c.Loose || c.Tight > 1:
		return fmt.Errorf("canopy: Tight = %v out of [Loose,1]", c.Tight)
	case c.Q <= 0:
		return fmt.Errorf("canopy: Q = %d, want > 0", c.Q)
	case c.MaxAligned < 0:
		return fmt.Errorf("canopy: negative MaxAligned")
	case c.MaxNeighborhood < 0:
		return fmt.Errorf("canopy: negative MaxNeighborhood")
	case c.MaxNeighborhood > 0 && c.MaxNeighborhood < 2:
		return fmt.Errorf("canopy: MaxNeighborhood = %d, want 0 (unbounded) or >= 2", c.MaxNeighborhood)
	}
	return nil
}

// DefaultConfig returns thresholds tuned so that (essentially) every pair
// with a non-zero discretized name-similarity level lands in a shared
// canopy: 2-grams are robust to single-character typos and to first-name
// abbreviation, and the loose threshold is low enough that true-match
// pairs are practically never blocked apart (verified in the tests).
func DefaultConfig() Config {
	return Config{Loose: 0.42, Tight: 0.85, Q: 2, MaxAligned: 1}
}

// normalize renders a reference name into canonical "first last" form so
// that punctuation and case do not affect gram overlap.
func normalize(name string) string {
	return similarity.ParseName(name).String()
}

// Canopies clusters the given names into (possibly overlapping) canopies
// and returns each canopy as a list of indices into names. Every name is
// in at least one canopy. Seeds are processed in ascending index order,
// making the construction deterministic.
func Canopies(names []string, cfg Config) [][]core.EntityID {
	sets, err := CanopiesContext(context.Background(), names, cfg, 1)
	if err != nil {
		// Unreachable: a background context never cancels and serial
		// construction has no other failure mode.
		panic(err)
	}
	return sets
}

// scored is one canopy candidate of a seed: a record id with its cheap
// q-gram similarity to the seed (fields exported for the index blob).
type scored struct {
	ID  core.EntityID
	Sim float64
}

// gramTable is the inverted q-gram index both blocking paths score
// against. Each distinct byte q-gram is interned to a dense id when a
// record first contains it; after insert nothing is keyed by string.
type gramTable struct {
	q        int
	ids      map[string]int32 // gram dictionary, consulted once per gram at insert
	grams    [][]int32        // record -> ascending distinct gram ids
	postings [][]int32        // gram id -> record ids, ascending as records only append
}

func newGramTable(q int) *gramTable {
	return &gramTable{q: q, ids: map[string]int32{}}
}

// insert appends the record with normalized name s. Its grams are the byte
// q-grams of s, or s itself when it is shorter than q; "" has none.
func (t *gramTable) insert(s string) {
	q := min(t.q, len(s))
	gs := make([]int32, 0, len(s)-q+1)
	for i := 0; q > 0 && i+q <= len(s); i++ {
		gs = append(gs, t.intern(s[i:i+q]))
	}
	slices.Sort(gs)
	gs = slices.Compact(gs)
	id := int32(len(t.grams))
	for _, g := range gs {
		t.postings[g] = append(t.postings[g], id)
	}
	t.grams = append(t.grams, gs)
}

// truncate undoes every insert after the first n records, given that the
// dictionary held dict grams when record n was inserted: ids are handed out
// in order, so exactly the grams from dict on were first seen since.
func (t *gramTable) truncate(n, dict int) {
	for id := len(t.grams) - 1; id >= n; id-- {
		for _, g := range t.grams[id] {
			t.postings[g] = t.postings[g][:len(t.postings[g])-1] // ascending: id is last
		}
	}
	clear(t.grams[n:])
	t.grams = t.grams[:n]
	if len(t.postings) > dict {
		for g, id := range t.ids {
			if int(id) >= dict {
				delete(t.ids, g)
			}
		}
		clear(t.postings[dict:])
		t.postings = t.postings[:dict]
	}
}

func (t *gramTable) intern(g string) int32 {
	id, ok := t.ids[g]
	if !ok {
		id = int32(len(t.postings))
		// Cloned so the dictionary does not pin the name g was cut from.
		t.ids[strings.Clone(g)] = id
		t.postings = append(t.postings, nil)
	}
	return id
}

// probeScratch is one worker's counting state, grown with the table.
type probeScratch struct {
	cnt     []int32 // cnt[j]: grams record j shares with the seed; zero between probes
	touched []int32 // records with cnt > 0, in first-touch order
}

// probe returns, in ascending id order, every inserted record whose gram
// set has Jaccard >= loose with the gram ids gs. Walking the postings of gs
// visits each (candidate, shared gram) incidence exactly once, so a counter
// per candidate is the intersection size c and sim = c / (|gs|+|grams[j]|-c)
// without reading a gram set again. An inserted record is its own candidate
// (sim 1); one with no grams has none.
func (t *gramTable) probe(gs []int32, loose float64, sc *probeScratch) []scored {
	if grow := len(t.grams) - len(sc.cnt); grow > 0 {
		sc.cnt = append(sc.cnt, make([]int32, grow)...)
	}
	cnt, touched := sc.cnt, sc.touched[:0]
	for _, g := range gs {
		for _, j := range t.postings[g] {
			if cnt[j] == 0 {
				touched = append(touched, j)
			}
			cnt[j]++
		}
	}
	var out []scored
	for _, j := range touched {
		c := int(cnt[j])
		cnt[j] = 0
		if s := float64(c) / float64(len(gs)+len(t.grams[j])-c); s >= loose {
			out = append(out, scored{ID: j, Sim: s})
		}
	}
	sc.touched = touched
	slices.SortFunc(out, func(a, b scored) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// emitter is the serial half of Canopies: fed each record's loose
// candidates in ascending seed order, it emits a canopy for every seed still
// in the pool and removes that canopy's tightly similar members from it.
type emitter struct {
	cfg      Config
	removed  []bool // per record: no longer in the seed pool
	canopies [][]core.EntityID
}

func (e *emitter) emit(seed int, kept []scored) {
	if e.removed[seed] {
		return
	}
	if len(kept) == 0 {
		kept = []scored{{ID: core.EntityID(seed), Sim: 1}}
	}
	if e.cfg.MaxNeighborhood > 0 && len(kept) > e.cfg.MaxNeighborhood {
		kept = capCanopy(kept, core.EntityID(seed), e.cfg.MaxNeighborhood)
	}
	canopy := make([]core.EntityID, len(kept))
	for i, c := range kept {
		canopy[i] = c.ID
		if c.Sim >= e.cfg.Tight {
			e.removed[c.ID] = true
		}
	}
	e.removed[seed] = true
	e.canopies = append(e.canopies, canopy)
}

// batchPerShard is how many seeds each shard scores per parallel round.
// Seeds removed from the pool by an earlier seed of the same round are
// scored speculatively and discarded, so the batch bounds wasted work.
const batchPerShard = 32

// CanopiesContext is Canopies with context cancellation and sharded
// execution: names are normalized in parallel and interned serially into
// one gramTable; seed scoring — one counting probe per seed — runs on a
// pool of `shards` workers (shards <= 0 means GOMAXPROCS), while canopy
// emission stays serial in ascending seed order. A seed's candidate list
// depends only on the immutable gram table, never on the evolving seed
// pool, so the output is byte-identical for every shard count, including
// 1. A canceled context aborts between rounds with ctx.Err().
//
// Each worker keeps a private counter array of n int32s, so working
// memory is O(shards·n) on top of the gram table; on very large corpora,
// bound shards accordingly rather than defaulting to one per core.
func CanopiesContext(ctx context.Context, names []string, cfg Config, shards int) ([][]core.EntityID, error) {
	shards = scoringShards(shards, len(names))
	norm := make([]string, len(names))
	if err := eachShard(ctx, len(names), shards, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			norm[i] = normalize(names[i])
		}
	}); err != nil {
		return nil, err
	}
	return canopiesOfNormalized(ctx, norm, cfg, shards)
}

// scoringShards resolves a shard count: GOMAXPROCS when unset, and never
// more workers than there are seed batches to score.
func scoringShards(shards, n int) int {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if max := (n + batchPerShard - 1) / batchPerShard; shards > max && max > 0 {
		shards = max
	}
	return shards
}

// canopiesOfNormalized is CanopiesContext over names already in normalized
// form, which BuildCoverContext reads off the dataset's name table instead
// of parsing every reference again. shards is a scoringShards result.
func canopiesOfNormalized(ctx context.Context, norm []string, cfg Config, shards int) ([][]core.EntityID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := len(norm)
	tab := newGramTable(cfg.Q)
	for _, s := range norm {
		tab.insert(s)
	}
	scratch := make([]probeScratch, shards)
	e := &emitter{cfg: cfg, removed: make([]bool, n)}
	for next := 0; next < n; {
		// Gather the next round of in-pool seeds.
		batch := make([]int, 0, shards*batchPerShard)
		for next < n && len(batch) < shards*batchPerShard {
			if !e.removed[next] {
				batch = append(batch, next)
			}
			next++
		}
		if len(batch) == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Parallel phase: score every seed of the round.
		cands := make([][]scored, len(batch))
		var wg sync.WaitGroup
		for w := 0; w < shards; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for bi := w; bi < len(batch); bi += shards {
					cands[bi] = tab.probe(tab.grams[batch[bi]], cfg.Loose, &scratch[w])
				}
			}(w)
		}
		wg.Wait()
		// Serial phase: emit canopies in seed order, honoring removals
		// made by earlier seeds of the same round.
		for bi, seed := range batch {
			e.emit(seed, cands[bi])
		}
	}
	return e.canopies, nil
}

// capCanopy keeps the seed plus the k-1 most similar candidates (ties by
// ascending id), returned in ascending id order. Dropped candidates are
// NOT removed from the seed pool by the caller, preserving the cover
// property.
func capCanopy(cands []scored, seed core.EntityID, k int) []scored {
	byRank := append([]scored(nil), cands...)
	sort.Slice(byRank, func(a, b int) bool {
		if byRank[a].ID == seed || byRank[b].ID == seed {
			return byRank[a].ID == seed
		}
		if byRank[a].Sim != byRank[b].Sim {
			return byRank[a].Sim > byRank[b].Sim
		}
		return byRank[a].ID < byRank[b].ID
	})
	byRank = byRank[:k]
	sort.Slice(byRank, func(a, b int) bool { return byRank[a].ID < byRank[b].ID })
	return byRank
}

// eachShard splits [0, n) into `shards` contiguous blocks and runs fn on
// each concurrently, unless ctx is already canceled.
func eachShard(ctx context.Context, n, shards int, fn func(lo, hi int)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if shards > n {
		shards = n
	}
	if shards <= 1 {
		fn(0, n)
		return nil
	}
	var wg sync.WaitGroup
	per := (n + shards - 1) / shards
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return nil
}

// ExpandBoundary grows every neighborhood by its boundary w.r.t. rel:
// all entities sharing a relation edge with a member join the
// neighborhood. The result is a total cover w.r.t. rel (§4).
func ExpandBoundary(sets [][]core.EntityID, rel *graph.Graph) [][]core.EntityID {
	out := make([][]core.EntityID, len(sets))
	member := make([]int32, entitySpan(sets, rel)) // member[e] == i+1: e is in out[i]
	for i, set := range sets {
		stamp := int32(i + 1)
		for _, e := range set {
			member[e] = stamp
		}
		expanded := append([]core.EntityID(nil), set...)
		for _, e := range set {
			for _, u := range rel.Neighbors(e) {
				if member[u] != stamp {
					member[u] = stamp
					expanded = append(expanded, u)
				}
			}
		}
		slices.Sort(expanded)
		out[i] = expanded
	}
	return out
}

// entitySpan is one past the highest entity id rel or sets can name.
func entitySpan(sets [][]core.EntityID, rel *graph.Graph) int {
	n := rel.N()
	for _, set := range sets {
		for _, e := range set {
			n = max(n, int(e)+1)
		}
	}
	return n
}

// GreedyTotalCover turns canopies into a total cover (Definition 7) with
// minimal growth: every relation edge not yet inside any single
// neighborhood is patched by adding its missing endpoint to the
// lowest-id neighborhood containing the other endpoint. The result
// covers every relation tuple exactly as Definition 7 requires, while
// neighborhoods stay close to canopy size — which is what fragments
// relational context across neighborhoods and gives message passing its
// role (cf. Figure 2 of the paper, where C1 holds a- and b-references
// but no c-references).
//
// Placement is id-based, not size-based, deliberately: canopy emission
// gives a record's neighborhoods stable ids under ingestion (old seeds
// re-emit in order, new canopies append), so picking the lowest
// containing id keeps patch placement — and with it the whole cover —
// overwhelmingly stable when records are only appended. That stability
// is what lets the delta Index report most ingestion batches as
// additive and the incremental pipeline warm-start instead of re-running
// cold; a size-based rule re-routes patches every time any neighborhood
// grows.
func GreedyTotalCover(sets [][]core.EntityID, rel *graph.Graph) [][]core.EntityID {
	out := make([][]core.EntityID, len(sets))
	containing := make([][]int32, entitySpan(sets, rel))
	for i, set := range sets {
		out[i] = append([]core.EntityID(nil), set...)
		for _, e := range set {
			containing[e] = append(containing[e], int32(i))
		}
	}
	// Membership lists start ascending and gain only patched (arbitrary)
	// ids at the tail, so the lowest id is the head unless a patch
	// undercut it — track the minimum explicitly.
	lowestWith := func(e core.EntityID) int32 {
		best := int32(-1)
		for _, s := range containing[e] {
			if best < 0 || s < best {
				best = s
			}
		}
		return best
	}
	add := func(s int32, e core.EntityID) {
		out[s] = append(out[s], e)
		containing[e] = append(containing[e], s)
	}
	// withU[s] == u+1: set s contains u, the endpoint being patched.
	withU := make([]int32, len(sets))
	for u := int32(0); u < int32(rel.N()); u++ {
		stamp := u + 1
		for _, s := range containing[u] {
			withU[s] = stamp
		}
		for _, v := range rel.Neighbors(u) {
			if v <= u || slices.ContainsFunc(containing[v], func(s int32) bool { return withU[s] == stamp }) {
				continue // the lower endpoint's turn, or one set already holds both
			}
			su, sv := lowestWith(u), lowestWith(v)
			switch {
			case su < 0 && sv < 0:
				// Neither endpoint covered (cannot happen for covers).
			case sv < 0 || (su >= 0 && su <= sv):
				add(su, v)
			default:
				add(sv, u)
				withU[sv] = stamp
			}
		}
	}
	for i := range out {
		slices.Sort(out[i])
	}
	return out
}

// AlignedExpand grows each canopy with bounded relational context: for
// every name-similar pair (a, b) inside the canopy, the endpoints of up
// to maxAligned aligned coauthor pairs — (c1, c2) with c1 ∈ N(a),
// c2 ∈ N(b) and similar names — are added.
//
// When more than maxAligned pairs qualify, the kept ones are those with
// the EARLIEST-ingested endpoints: candidates are ranked by highest
// endpoint id ascending (then lowest endpoint, then c1). Because
// appended records always carry higher ids than everything before them,
// a pair involving a new record can never outrank a previously chosen
// all-old pair — the selection, and with it the whole cover, is stable
// under record ingestion (the property the incremental Index relies
// on). The result is NOT necessarily total; run GreedyTotalCover first.
func AlignedExpand(d *bib.Dataset, sets [][]core.EntityID, maxAligned int) [][]core.EntityID {
	return alignedExpandInto(d, sets, sets, maxAligned)
}

// alignedExpandInto is AlignedExpand with the pair source decoupled from
// the expansion target: the name-similar (a, b) pairs driving the
// expansion are enumerated over pairSets[i], while members are added to
// (a copy of) sets[i]. BuildCover passes the raw canopies as the pair
// source and the totality-patched sets as the target — patch members are
// co-located for Definition 7, not name-similar, so scanning them for
// driving pairs would cost quadratic similarity work for nothing, and
// the canopy pair source is append-stable under ingestion by
// construction. pairSets[i] must be a subset of sets[i].
//
// Both similarity tests go through the dataset's name table: the driving
// pairs of a pair set are the member products of its similar name classes
// (classGroups.similarPairs), and an aligned (c1, c2) is tested by the level
// of its two classes. The level depends on the parsed names alone, so this
// visits exactly the pairs a scan of every reference pair would keep; the
// order differs, which cannot show: each driving pair contributes its own
// endpoints, independently of the others, to a set that is sorted at the
// end.
func alignedExpandInto(d *bib.Dataset, pairSets, sets [][]core.EntityID, maxAligned int) [][]core.EntityID {
	if maxAligned <= 0 {
		return sets
	}
	rel := d.Coauthor()
	names := d.Names()
	groups := newClassGroups(names)
	out := make([][]core.EntityID, len(sets))
	member := make([]int32, d.NumRefs()) // member[e] == si+1: e is in out[si]
	var combos []alignedPair             // reused scratch
	for si, set := range sets {
		stamp := int32(si + 1)
		expanded := append([]core.EntityID(nil), set...)
		for _, e := range set {
			member[e] = stamp
		}
		add := func(e core.EntityID) {
			if member[e] != stamp {
				member[e] = stamp
				expanded = append(expanded, e)
			}
		}
		groups.similarPairs(pairSets[si], func(a, b core.EntityID) {
			// Gather the coauthor combinations (cheap, no similarity
			// yet), order them by the ingestion-stable priority, and
			// only then test name similarity, stopping at maxAligned
			// qualifying pairs — the comparisons stay proportional to
			// the scan prefix, not the full product.
			combos = combos[:0]
			for _, c1 := range rel.Neighbors(a) {
				for _, c2 := range rel.Neighbors(b) {
					if c1 != c2 {
						combos = append(combos, alignedPair{c1: c1, c2: c2})
					}
				}
			}
			slices.SortFunc(combos, alignedPair.compare)
			taken := 0
			for _, q := range combos {
				if taken >= maxAligned {
					break
				}
				if names.RefLevel(q.c1, q.c2) == similarity.LevelNone {
					continue
				}
				add(q.c1)
				add(q.c2)
				taken++
			}
		})
		slices.Sort(expanded)
		out[si] = expanded
	}
	return out
}

// alignedPair is one (c1, c2) aligned-coauthor candidate.
type alignedPair struct{ c1, c2 core.EntityID }

// compare ranks by highest endpoint ascending, then lowest endpoint,
// then c1 — the ingestion-stable priority of AlignedExpand (a strict
// total order over distinct combinations).
func (p alignedPair) compare(q alignedPair) int {
	pmax, pmin := p.c1, p.c2
	if pmax < pmin {
		pmax, pmin = pmin, pmax
	}
	qmax, qmin := q.c1, q.c2
	if qmax < qmin {
		qmax, qmin = qmin, qmax
	}
	switch {
	case pmax != qmax:
		return int(pmax) - int(qmax)
	case pmin != qmin:
		return int(pmin) - int(qmin)
	default:
		return int(p.c1) - int(q.c1)
	}
}

// BuildCover constructs the total cover for a bibliography dataset:
// canopies over reference names, expanded with bounded aligned context
// (cfg.MaxAligned) and patched to totality w.r.t. Coauthor — or fully
// boundary-expanded when cfg.FullBoundary is set.
func BuildCover(d *bib.Dataset, cfg Config) *core.Cover {
	cover, err := BuildCoverContext(context.Background(), d, cfg, 1)
	if err != nil {
		panic(err) // unreachable: background context, serial execution
	}
	return cover
}

// BuildCoverContext is BuildCover with context cancellation and sharded
// canopy construction (shards <= 0 means GOMAXPROCS). The cover is
// byte-identical for every shard count; a canceled context aborts with
// ctx.Err().
func BuildCoverContext(ctx context.Context, d *bib.Dataset, cfg Config, shards int) (*core.Cover, error) {
	names := d.Names()
	norm := make([]string, d.NumRefs())
	for i := range norm {
		norm[i] = names.Normalized(bib.RefID(i))
	}
	canopies, err := canopiesOfNormalized(ctx, norm, cfg, scoringShards(shards, len(norm)))
	if err != nil {
		return nil, err
	}
	return finishCover(ctx, d, cfg, canopies)
}

// finishCover turns canopies into the total cover, batch or incremental.
// Set membership in all three steps is a stamp array over entity ids, and
// name similarity the dataset's name table (d.Names(), which the caller's
// canopy step has usually built already and CandidatePairs reads next), so
// the cost is the cover's size, the similar pairs' coauthor products and one
// NameLevel per class pair not scored before — no per-set or per-pair hash
// map.
func finishCover(ctx context.Context, d *bib.Dataset, cfg Config, canopies [][]core.EntityID) (*core.Cover, error) {
	var sets [][]core.EntityID
	if cfg.FullBoundary {
		sets = ExpandBoundary(canopies, d.Coauthor())
	} else {
		// Totality patching runs FIRST, on the raw canopies: canopy sets
		// and their ids are append-stable under record ingestion, so
		// patch placement (lowest containing id) never moves for old
		// edges and the cover stays additive across deltas — the
		// property the incremental Index exploits. Aligned relational
		// context is absorbed afterwards (driven by the canopy pairs,
		// added to the patched sets); it only grows sets and cannot
		// re-route patches.
		sets = GreedyTotalCover(canopies, d.Coauthor())
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sets = alignedExpandInto(d, canopies, sets, cfg.MaxAligned)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return core.NewCover(d.NumRefs(), sets), nil
}

// SimilarPairs enumerates the candidate pairs of a dataset: unordered
// reference pairs with non-zero discretized name similarity that share at
// least one canopy. This is the pair universe the matchers decide (the
// paper's "1.3M matching decisions"). Pairs are returned with their level.
type SimilarPair struct {
	Pair  core.Pair
	Level similarity.Level
}

// CandidatePairs returns every in-neighborhood pair with non-zero
// name-similarity level, once each, in ascending (A, B) order.
//
// It never enumerates a neighborhood's reference pairs. Each neighborhood is
// grouped by parsed name and only the member products of similar name pairs
// are emitted (classGroups.similarPairs) — the level is a function of the
// two parsed names, so every pair of such a product is a candidate at that
// level and no pair outside one is. On abbreviated corpora that is an order
// of magnitude fewer steps than pairs (HEPTH-like 0.5: 574 k in-neighborhood
// reference pairs, 47 k name pairs, 14.6 k of them distinct, 9.3 k
// candidates). Only emitted pairs are deduplicated: overlapping
// neighborhoods emit a pair once each, into the list of its lower endpoint.
//
// The levels come from d.Names(). When d is the dataset the cover was built
// on, the canopies' class pairs — most of what a neighborhood holds — were
// scored by BuildCover, and only the pairs that totality patching and
// aligned expansion brought together are scored here.
func CandidatePairs(d *bib.Dataset, cover *core.Cover) []SimilarPair {
	names := d.Names()
	groups := newClassGroups(names)
	// later[a]: every b > a similar to a, once per neighborhood they share.
	later := make([][]core.EntityID, d.NumRefs())
	for _, set := range cover.Sets {
		groups.similarPairs(set, func(a, b core.EntityID) { later[a] = append(later[a], b) })
	}
	var out []SimilarPair
	for a, bs := range later {
		slices.Sort(bs)
		for _, b := range slices.Compact(bs) {
			p := core.Pair{A: core.EntityID(a), B: b}
			out = append(out, SimilarPair{Pair: p, Level: names.RefLevel(p.A, p.B)})
		}
	}
	return out
}
