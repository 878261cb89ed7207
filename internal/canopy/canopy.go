// Package canopy builds covers (§4 of the paper): it implements the
// Canopies algorithm of McCallum, Nigam & Ungar (reference [13]) over a
// cheap q-gram similarity with an inverted index, and then turns the
// canopies into a *total cover* (Definition 7) by expanding every
// neighborhood with its boundary w.r.t. the Coauthor relation — exactly
// the construction §4 describes ("we construct a total cover by first
// constructing a total cover over Similar using Canopies, and then taking
// the boundary of each neighborhood with respect to other relations").
//
// Canopy scoring is over distinct normalized names, not references: the
// q-gram table (gramTable) holds one row per distinct name — gram ids,
// posting entries, counters — scores a similar pair of rows once, by
// counting along the later row's postings, and only emission (emitter) turns
// candidate rows into the references that carry them. Blocking is one index:
// a cold run (BuildCoverContext, CanopiesContext) is an Index's first add,
// and an incremental one its later adds; the per-record scorer it replaced
// is the oracle in oldcmp_test.go.
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
	"sync"

	"repro/internal/bib"
	"repro/internal/core"
	"repro/internal/flat"
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
	case !(c.Loose > 0 && c.Loose <= 1): // also refuses NaN
		return fmt.Errorf("canopy: Loose = %v out of (0,1]", c.Loose)
	case !(c.Tight >= c.Loose && c.Tight <= 1):
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

// scored is one canopy candidate of a seed with its cheap q-gram similarity
// to the seed. Scoring is over name rows, so in the table's candidate lists
// ID is a row id; the emitter expands rows to record ids (fields exported
// for the index blob).
type scored struct {
	ID  int32
	Sim float64
}

// gramTable is the inverted q-gram index an Index scores against, a table
// over DISTINCT normalized names: references whose names normalize to
// one string share a row, and everything the scorer reads — gram lists,
// postings, counters — is per row. Two references of one row have the same
// grams, hence the same similarity to everything, so a row is scored once
// and its references stand or fall together; only emission (emitter) walks
// references. Each distinct byte q-gram is interned to a dense id when a row
// first contains it; after insert nothing on the scoring path is keyed by
// string.
type gramTable struct {
	q        int
	ids      map[string]int32 // gram dictionary, consulted once per gram of a new row
	rows     map[string]int32 // normalized name -> row
	names    []string         // row -> normalized name, rows in order of first appearance
	grams    [][]int32        // row -> ascending distinct gram ids
	postings [][]int32        // gram id -> rows, ascending as rows only append
	rowOf    []int32          // record -> row

	// row -> its records, ascending, as CSR; derived from rowOf by
	// indexMembers and stale after an insert until it is called again.
	memberOff []int32
	members   []core.EntityID
}

func newGramTable(q int) *gramTable {
	return &gramTable{q: q, ids: map[string]int32{}, rows: map[string]int32{}}
}

// insert appends the record with normalized name s and reports its row and
// whether the record opened it.
func (t *gramTable) insert(s string) (row int32, fresh bool) {
	row, fresh = t.rowFor(s)
	t.rowOf = append(t.rowOf, row)
	return row, fresh
}

// rowFor returns the row of normalized name s, opening it when s is new. A
// row's grams are the byte q-grams of s, or s itself when it is shorter than
// q; "" has none.
func (t *gramTable) rowFor(s string) (row int32, fresh bool) {
	if row, ok := t.rows[s]; ok {
		return row, false
	}
	row = int32(len(t.names))
	t.rows[s] = row
	t.names = append(t.names, s)
	q := min(t.q, len(s))
	gs := make([]int32, 0, len(s)-q+1)
	for i := 0; q > 0 && i+q <= len(s); i++ {
		gs = append(gs, t.intern(s[i:i+q]))
	}
	slices.Sort(gs)
	gs = slices.Compact(gs)
	for _, g := range gs {
		t.postings[g] = append(t.postings[g], row)
	}
	t.grams = append(t.grams, gs)
	return row, true
}

// intern returns the id of gram g, a substring of a row name: the table
// keeps every row name, so keying the dictionary by the substring pins
// nothing more.
func (t *gramTable) intern(g string) int32 {
	id, ok := t.ids[g]
	if !ok {
		id = int32(len(t.postings))
		t.ids[g] = id
		t.postings = append(t.postings, nil)
	}
	return id
}

// tableMark is a gramTable's size at one moment; truncate returns to it.
type tableMark struct{ records, rows, dict int }

func (t *gramTable) mark() tableMark {
	return tableMark{records: len(t.rowOf), rows: len(t.names), dict: len(t.postings)}
}

// truncate undoes every insert since m was taken. Row and gram ids are
// handed out in order, so exactly the rows from m.rows on and the grams from
// m.dict on were first seen since.
func (t *gramTable) truncate(m tableMark) {
	t.rowOf = t.rowOf[:m.records]
	for row := len(t.names) - 1; row >= m.rows; row-- {
		for _, g := range t.grams[row] {
			t.postings[g] = t.postings[g][:len(t.postings[g])-1] // ascending: row is last
		}
		delete(t.rows, t.names[row])
	}
	clear(t.names[m.rows:])
	t.names = t.names[:m.rows]
	clear(t.grams[m.rows:])
	t.grams = t.grams[:m.rows]
	if len(t.postings) > m.dict {
		for g, id := range t.ids {
			if int(id) >= m.dict {
				delete(t.ids, g)
			}
		}
		clear(t.postings[m.dict:])
		t.postings = t.postings[:m.dict]
	}
}

// indexMembers rebuilds the row -> records CSR from rowOf.
func (t *gramTable) indexMembers() {
	t.memberOff, t.members = flat.Bucket(len(t.names), func(yield func(int32, core.EntityID)) {
		for rec, row := range t.rowOf {
			yield(row, core.EntityID(rec))
		}
	})
}

// membersOf returns row's records, ascending (as of the last indexMembers).
func (t *gramTable) membersOf(row int32) []core.EntityID {
	return t.members[t.memberOff[row]:t.memberOff[row+1]]
}

// minShared returns the least intersection size c a row of n > 0 grams can
// have with any row at similarity >= loose: the similarity is
// c / (n + |y| - c) with |y| >= c, at most c / n, and float division is
// monotone in both operands, so the test below can only pass when
// float64(c)/float64(n) >= loose does. The bound is taken from that very
// expression, not from ceil(loose*n), whose product may round up across an
// integer (0.28 * 25 is 7.000000000000001) and drop a row the float test
// keeps (7/25 >= 0.28).
func minShared(n int, loose float64) int32 {
	c := int(loose * float64(n))
	for c > 0 && float64(c-1)/float64(n) >= loose {
		c--
	}
	for float64(c)/float64(n) < loose {
		c++
	}
	return int32(c)
}

// probe returns, in ascending row order, every row at or before x whose gram
// set has Jaccard >= loose with row x's: a similar pair of rows is found
// once, from its later row (Index.score merges the lists symmetrically).
// Walking the postings of x's grams — ascending, so each walk stops past x —
// visits each (row, shared gram) incidence exactly once, so a counter per row
// is the intersection size c and sim = c / (|x|+|y|-c) without reading a
// gram set again. Both loops are dense: the count is a bare increment — no
// first-touch test, no list of touched rows — and one in-order, read-only
// scan of the counters up to x then drops nearly every row on the integer
// bound minShared and scores the few that pass it; the scan order is the
// output order, and one clear resets the counters (measured against clearing
// inside the scan: the store per row cost more than the second pass). cnt
// holds a zero per row, before and after. A row is its own candidate (sim
// 1); one with no grams has none.
func (t *gramTable) probe(x int32, loose float64, cnt []int32) []scored {
	gs := t.grams[x]
	if len(gs) == 0 {
		return nil
	}
	for _, g := range gs {
		for _, y := range t.postings[g] {
			if y > x {
				break
			}
			cnt[y]++
		}
	}
	need := minShared(len(gs), loose)
	var out []scored
	cnt = cnt[:x+1]
	for y, c := range cnt {
		if c < need {
			continue
		}
		if s := float64(c) / float64(len(gs)+len(t.grams[y])-int(c)); s >= loose {
			out = append(out, scored{ID: int32(y), Sim: s})
		}
	}
	clear(cnt)
	return out
}

// emitter is the serial half of Canopies: fed each seed's loose candidate
// rows in ascending seed order, it emits the canopy of every seed still in
// the pool — the records of those rows — and removes that canopy's tightly
// similar members from the pool.
type emitter struct {
	cfg      Config
	tab      *gramTable // members indexed
	removed  []bool     // per record: no longer in the seed pool
	canopies [][]core.EntityID
	kept     []scored // scratch: the seed's record-level candidates
}

func newEmitter(cfg Config, tab *gramTable) *emitter {
	tab.indexMembers()
	return &emitter{cfg: cfg, tab: tab, removed: make([]bool, len(tab.rowOf))}
}

// emit emits seed's canopy given the candidates of its row, unless an
// earlier canopy took seed out of the pool. Every record of a candidate row
// is a candidate at the row's similarity; a seed without candidates (a name
// with no grams is not even its own) is a canopy by itself.
func (e *emitter) emit(seed core.EntityID, rows []scored) {
	if e.removed[seed] {
		return
	}
	kept := e.kept[:0]
	for _, r := range rows {
		for _, rec := range e.tab.membersOf(r.ID) {
			kept = append(kept, scored{ID: rec, Sim: r.Sim})
		}
	}
	if len(kept) == 0 {
		kept = append(kept, scored{ID: seed, Sim: 1})
	}
	e.kept = kept
	if e.cfg.MaxNeighborhood > 0 && len(kept) > e.cfg.MaxNeighborhood {
		kept = capCanopy(kept, seed, e.cfg.MaxNeighborhood)
	}
	canopy := make([]core.EntityID, len(kept))
	for i, c := range kept {
		canopy[i] = c.ID
		if c.Sim >= e.cfg.Tight {
			e.removed[c.ID] = true
		}
	}
	e.removed[seed] = true
	// Rows ascend and so do a row's records, but records of different rows
	// interleave.
	slices.Sort(canopy)
	e.canopies = append(e.canopies, canopy)
}

// CanopiesContext is Canopies with context cancellation and sharded
// execution: the names, normalized in parallel, are the first add of an
// index of `shards` scoring workers (shards <= 0 means GOMAXPROCS), and its
// serial emission gives the same canopies for every shard count. A canceled
// context aborts between probes with ctx.Err(). Each worker past the first
// keeps a counter per distinct name, so bound shards on very large corpora.
func CanopiesContext(ctx context.Context, names []string, cfg Config, shards int) ([][]core.EntityID, error) {
	norm := make([]string, len(names))
	if err := eachShard(ctx, len(names), scoringShards(shards, len(names)), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			norm[i] = normalize(names[i])
		}
	}); err != nil {
		return nil, err
	}
	ix := newIndex(cfg, shards)
	for _, s := range norm {
		ix.tab.insert(s)
	}
	if err := ix.score(ctx, 0); err != nil {
		return nil, err
	}
	return ix.emit(), nil
}

// rowsPerShard is the fewest new rows a scoring worker is started for: a
// worker past the first allocates a counter per row of the table.
const rowsPerShard = 32

// scoringShards resolves a shard count for n new rows: GOMAXPROCS when
// unset, and never more workers than there are rowsPerShard rows to score.
func scoringShards(shards, n int) int {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	return max(1, min(shards, n/rowsPerShard))
}

// capCanopy cuts cands, in place, to the seed plus the k-1 most similar
// candidates (ties by ascending id). Dropped candidates are NOT removed from
// the seed pool by the caller, preserving the cover property.
func capCanopy(cands []scored, seed core.EntityID, k int) []scored {
	rank := func(c scored) float64 {
		if c.ID == seed {
			return 2 // above every similarity
		}
		return c.Sim
	}
	slices.SortFunc(cands, func(a, b scored) int {
		return cmp.Or(cmp.Compare(rank(b), rank(a)), cmp.Compare(a.ID, b.ID))
	})
	return cands[:k]
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

// alignedExpandInto grows each canopy with bounded relational context: for
// every name-similar pair (a, b) inside it, the endpoints of up to
// maxAligned aligned coauthor pairs — (c1, c2) with c1 ∈ N(a), c2 ∈ N(b)
// and similar names — are added.
//
// When more than maxAligned pairs qualify, the kept ones are those with
// the EARLIEST-ingested endpoints: candidates are ranked by highest
// endpoint id ascending (then lowest endpoint, then c1). Because
// appended records always carry higher ids than everything before them,
// a pair involving a new record can never outrank a previously chosen
// all-old pair — the selection, and with it the whole cover, is stable
// under record ingestion (the property the incremental Index relies
// on). The result is NOT necessarily total; run GreedyTotalCover first.
//
// The pair source is decoupled from the expansion target: the
// name-similar (a, b) pairs driving the expansion are enumerated over
// pairSets[i], while members are added to (a copy of) sets[i].
// BuildCover passes the raw canopies as the pair source and the
// totality-patched sets as the target — patch members are co-located for
// Definition 7, not name-similar, so scanning them for driving pairs
// would cost quadratic similarity work for nothing, and the canopy pair
// source is append-stable under ingestion by construction. pairSets[i]
// must be a subset of sets[i].
//
// Both similarity tests go through the dataset's name table: the driving
// pairs of a pair set are the member products of its similar name classes
// (classGroups.similarPairs), and an aligned (c1, c2) is tested by the level
// of its two classes. The level depends on the parsed names alone, so this
// visits exactly the pairs a scan of every reference pair would keep; the
// order differs, which cannot show: each driving pair contributes its own
// endpoints, independently of the others, to a set that is sorted at the
// end.
//
// What a driving pair contributes depends on the pair alone — N(a) × N(b),
// the priority order, the levels, maxAligned — while overlapping canopies
// repeat it (HEPTH-like 0.5: 36 561 occurrences of 8 451 distinct pairs).
// So the endpoints are computed at a pair's first occurrence, into one arena
// indexed through a flat table, and every occurrence only stamps them.
func alignedExpandInto(d *bib.Dataset, pairSets, sets [][]core.EntityID, maxAligned int) [][]core.EntityID {
	if maxAligned <= 0 {
		return sets
	}
	rel := d.Coauthor()
	names := d.Names()
	groups := newClassGroups(names)
	out := make([][]core.EntityID, len(sets))
	member := make([]int32, d.NumRefs()) // member[e] == si+1: e is in out[si]
	// Driving pair -> its ordinal i, whose endpoints are ends[off[i]:off[i+1]].
	// Sized for one distinct pair per pair-set entry, which it is within a
	// factor of three on the generated corpora; beyond that it grows.
	entries := 0
	for _, set := range pairSets {
		entries += len(set)
	}
	memo := flat.New[int32](entries, 0)
	off := make([]int32, 1, entries+1)
	var ends []core.EntityID
	var combos []alignedPair // reused scratch
	for si, set := range sets {
		stamp := int32(si + 1)
		expanded := append([]core.EntityID(nil), set...)
		for _, e := range set {
			member[e] = stamp
		}
		groups.similarPairs(pairSets[si], func(a, b core.EntityID, _ similarity.Level) {
			key := flat.Pair(a, b)
			slot, seen := memo.Find(key)
			i := int32(len(off) - 1)
			if seen {
				i = memo.Value(slot)
			} else {
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
					if names.RefLevel(q.c1, q.c2) != similarity.LevelNone {
						ends = append(ends, q.c1, q.c2)
						taken++
					}
				}
				memo.Insert(slot, key, i)
				off = append(off, int32(len(ends)))
			}
			for _, e := range ends[off[i]:off[i+1]] {
				if member[e] != stamp {
					member[e] = stamp
					expanded = append(expanded, e)
				}
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
// then c1 — the ingestion-stable priority of alignedExpandInto (a strict
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
// boundary-expanded when cfg.FullBoundary is set. It panics on an invalid
// cfg.
func BuildCover(d *bib.Dataset, cfg Config) *core.Cover {
	cover, err := BuildCoverContext(context.Background(), d, cfg, 1)
	if err != nil {
		panic(err) // a background context never cancels: cfg is invalid
	}
	return cover
}

// BuildCoverContext is BuildCover with context cancellation and sharded
// canopy scoring (shards <= 0 means GOMAXPROCS): the cover of BuildIndex.
// The cover is byte-identical for every shard count; a canceled context
// aborts with ctx.Err().
func BuildCoverContext(ctx context.Context, d *bib.Dataset, cfg Config, shards int) (*core.Cover, error) {
	ix, err := BuildIndex(ctx, d, cfg, shards)
	if err != nil {
		return nil, err
	}
	return ix.cover, nil
}

// finishCover turns canopies into the total cover, batch or incremental.
// Set membership in all three steps is a stamp array over entity ids, and
// name similarity the dataset's name table (d.Names(), which the caller's
// canopy step has usually built already and CandidatePairs reads next), so
// the cost is the cover's size, one probe of a flat table per driving pair,
// the distinct driving pairs' coauthor products and one NameLevel per class
// pair not scored before — no per-set or per-pair Go map.
//
// Every neighborhood contained in another is dropped (dropSubsumed) before
// the cover is built: for the monotone matchers the schemes assume, C ⊆ C′
// derives nothing C′ does not, so no fixpoint moves, and every pair of C lies
// in C′, so no candidate does.
//
// Nested canopies are dropped first, before either finishing step
// (dropNested): on the generated corpora 44–45 % of the canopies lie inside
// an earlier one (HEPTH-like 0.5, seed 42: 163 of 367), and finishing them
// only fed dropSubsumed. The cover does not change. A canopy A inside an
// earlier canopy B receives no totality patch — each member's lowest
// containing set is at most B, which precedes A — and A's driving pairs are
// all B's, so A finishes inside B and dropSubsumed drops it. Dropping it
// earlier keeps the order of the others, so "lowest containing id" and
// "lowest of equals" pick the same sets.
func finishCover(ctx context.Context, d *bib.Dataset, cfg Config, canopies [][]core.EntityID) (*core.Cover, error) {
	canopies = dropNested(d.NumRefs(), canopies)
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
	return core.NewCover(d.NumRefs(), dropSubsumed(d.NumRefs(), sets)), nil
}

// dropSubsumed returns sets — ascending, distinct, over entities [0, n) —
// without every set that is a subset of another; of equal sets the lowest id
// stays, and the survivors keep their order.
func dropSubsumed(n int, sets [][]core.EntityID) [][]core.EntityID {
	return withoutContained(n, sets, func(i, j int32) bool { return len(sets[j]) > len(sets[i]) || j < i })
}

// dropNested returns canopies — ascending, distinct, over entities [0, n) —
// without every canopy that is a subset of an earlier one; of equal canopies
// the first stays, and the survivors keep their order.
func dropNested(n int, canopies [][]core.EntityID) [][]core.EntityID {
	return withoutContained(n, canopies, func(i, j int32) bool { return j < i })
}

// withoutContained returns sets without each set i that lies inside a set j
// with drops(i, j), the survivors in order. The sets holding each entity are
// indexed in one counting pass, so the sets are merge-tested only against
// those holding their rarest member.
func withoutContained(n int, sets [][]core.EntityID, drops func(i, j int32) bool) [][]core.EntityID {
	off, in := flat.Bucket(n, func(yield func(core.EntityID, int32)) {
		for i, set := range sets {
			for _, e := range set {
				yield(e, int32(i))
			}
		}
	})
	holding := func(e core.EntityID) []int32 { return in[off[e]:off[e+1]] }
	keep := make([][]core.EntityID, 0, len(sets))
	for i, set := range sets {
		if superset(sets, holding, n, set, func(j int32) bool { return drops(int32(i), j) }) < 0 {
			keep = append(keep, set)
		}
	}
	return keep
}

// superset returns the id of one of sets that holds every member of the
// ascending set and satisfies ok, or -1. holding(e) lists, in ascending
// order, the ids of the sets holding an entity e < n; only those holding
// set's rarest member are merge-tested, and a member past n is in none. An
// empty set is inside every set.
func superset(sets [][]core.EntityID, holding func(core.EntityID) []int32, n int, set []core.EntityID, ok func(j int32) bool) int32 {
	if len(set) == 0 {
		for j := range sets {
			if ok(int32(j)) {
				return int32(j)
			}
		}
		return -1
	}
	if int(set[len(set)-1]) >= n {
		return -1
	}
	rarest := holding(set[0])
	for _, e := range set[1:] {
		if ids := holding(e); len(ids) < len(rarest) {
			rarest = ids
		}
	}
	for _, j := range rarest {
		if ok(j) && subsetOf(set, sets[j]) {
			return j
		}
	}
	return -1
}

// subsetOf reports a ⊆ b for ascending-sorted entity slices.
func subsetOf(a, b []core.EntityID) bool {
	j := 0
	for _, e := range a {
		for j < len(b) && b[j] < e {
			j++
		}
		if j >= len(b) || b[j] != e {
			return false
		}
		j++
	}
	return true
}

// SimilarPair is one candidate pair of a dataset: an unordered reference
// pair with non-zero discretized name similarity that shares at least one
// canopy, with its level. The candidates are the pair universe the
// matchers decide (the paper's "1.3M matching decisions"). This is the one
// declaration of the (pair, level) struct: match.Candidate and
// mln.Candidate are aliases of it.
type SimilarPair struct {
	Pair  core.Pair
	Level similarity.Level
}

// Levels returns the level column of a candidate list: position i holds
// pairs[i].Level, which is candidate id i's level when the list is in
// table order (core.TableOf).
func Levels(pairs []SimilarPair) []similarity.Level {
	out := make([]similarity.Level, len(pairs))
	for i, c := range pairs {
		out[i] = c.Level
	}
	return out
}

// CandidatePairs returns every in-neighborhood pair with non-zero
// name-similarity level, once each, in ascending (A, B) order.
//
// It never enumerates a neighborhood's reference pairs. Each neighborhood is
// grouped by parsed name and only the member products of similar name pairs
// are emitted (classGroups.similarPairs) — the level is a function of the
// two parsed names, so every pair of such a product is a candidate at that
// level and no pair outside one is. On abbreviated corpora that is an order
// of magnitude fewer steps than pairs (HEPTH-like 0.5, seed 42: 314 k
// in-neighborhood reference pairs, 27 k name pairs, 14.7 k of them distinct,
// 9.3 k candidates). Overlapping neighborhoods emit a pair once each (34 k
// times there), so emission deduplicates: a pair is kept, with its level in
// the key's payload bits, in a flat table the first time it is emitted, and
// only the distinct pairs are ordered.
//
// The levels come from d.Names(). When d is the dataset the cover was built
// on, the canopies' class pairs — most of what a neighborhood holds — were
// scored by BuildCover, and only the pairs that totality patching and
// aligned expansion brought together are scored here. Each level is read
// once per class pair of a neighborhood and carried with its pairs, never
// looked up again per candidate.
func CandidatePairs(d *bib.Dataset, cover *core.Cover) []SimilarPair {
	return candidatePairs(d, cover.Sets)
}

// CarriedCandidatePairs returns CandidatePairs(d, cover) from the candidates
// of the cover an Index.Add started from, given that Add's delta was
// additive: prior is CandidatePairs of that previous cover, changed the
// delta's Changed ids. Only the changed sets are enumerated, and their pairs
// are merged into prior. The result is exact. Every previous set lies
// inside some set of cover, so every prior candidate is still one; every
// set outside changed equals a previous set, so its pairs are prior
// candidates; and a level depends on the two names alone.
func CarriedCandidatePairs(d *bib.Dataset, cover *core.Cover, prior []SimilarPair, changed []int32) []SimilarPair {
	sets := make([][]core.EntityID, len(changed))
	for i, id := range changed {
		sets[i] = cover.Sets[id]
	}
	fresh := candidatePairs(d, sets)
	out := make([]SimilarPair, 0, len(prior)+len(fresh))
	for len(prior) > 0 && len(fresh) > 0 {
		switch a, b := prior[0].Pair.Key(), fresh[0].Pair.Key(); {
		case a < b:
			out, prior = append(out, prior[0]), prior[1:]
		case a > b:
			out, fresh = append(out, fresh[0]), fresh[1:]
		default:
			out, prior, fresh = append(out, prior[0]), prior[1:], fresh[1:]
		}
	}
	return append(append(out, prior...), fresh...)
}

// candidatePairs is CandidatePairs over a list of sets.
func candidatePairs(d *bib.Dataset, sets [][]core.EntityID) []SimilarPair {
	groups := newClassGroups(d.Names())
	// Sized for one candidate per set entry, which it is within a factor of
	// three on the generated corpora; beyond that it grows.
	entries := 0
	for _, set := range sets {
		entries += len(set)
	}
	seen := flat.New[struct{}](entries, 0)
	for _, set := range sets {
		groups.similarPairs(set, func(a, b core.EntityID, l similarity.Level) {
			key := flat.Pair(a, b) | uint64(l)
			if slot, ok := seen.Find(key); !ok {
				seen.Insert(slot, key, struct{}{})
			}
		})
	}
	// Order by (A, B): place the keys by A, then sort each A's few keys —
	// flat.Pair keys order as the pairs do.
	off, keys := flat.Bucket(d.NumRefs(), func(yield func(int32, uint64)) {
		for k := range seen.All() {
			yield(int32(k>>33), k)
		}
	})
	for a := range d.NumRefs() {
		slices.Sort(keys[off[a]:off[a+1]])
	}
	out := make([]SimilarPair, len(keys))
	for i, k := range keys {
		out[i] = SimilarPair{
			Pair:  core.Pair{A: core.EntityID(k >> 33), B: core.EntityID(k >> 2 & (1<<31 - 1))},
			Level: similarity.Level(k & 3),
		}
	}
	return out
}
