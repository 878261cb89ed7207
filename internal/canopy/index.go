package canopy

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/bib"
	"repro/internal/core"
)

// Index is the blocking state of a dataset's records: the gramTable — one
// row per distinct normalized name, its interned gram ids and their
// postings, and each record's row — plus a cached loose-candidate list per
// row. It is the one canopy scorer. A cold cover is an index's first Add
// (BuildIndex), and every later Add absorbs appended records: it scores only
// the rows the arriving suffix opens (a record with a known name just joins
// its row, and the candidate list of a row can only *grow* under ingestion,
// because postings are append-only), and then re-emits canopies and the
// total cover from the cached lists, expanding rows to their records as it
// goes.
//
// The cover Add produces is byte-identical to rebuilding from scratch
// with BuildCover on the union dataset — the property the differential
// harness and FuzzIndexAdd pin — so an incremental pipeline and a cold
// one agree on the blocking stage exactly. Like BuildCover's, it holds no
// neighborhood contained in another, so a set id of one Add's cover need
// not name the same set in the next one's; Delta compares covers by
// content.
//
// Index methods serialize internally, so concurrent Adds do not corrupt
// state — but the SECOND of two concurrent Adds still observes the
// first one's ingestion. Callers advancing a shared stream from a known
// base should use AddFrom, which detects that atomically.
type Index struct {
	cfg    Config
	shards int // scoring workers of an Add, as scoringShards resolves them

	mu    sync.Mutex
	tab   *gramTable  // rows, gram ids and postings of the records ingested so far
	cnt   []int32     // the first scoring worker's counters: a zero per row
	cands [][]scored  // loose candidate rows per row, ascending
	cover *core.Cover // cover built by the last Add; the next Add diffs against it
}

// ErrStale reports that AddFrom found the index already advanced past
// the caller's base — another ingestion got there first (a forked or
// concurrent stream). The caller's view is outdated; rebuild from its
// own records.
var ErrStale = errors.New("canopy: index advanced past the caller's base")

// Delta reports what one Add changed: the appended entities and which
// neighborhoods of the new cover cannot be assumed unchanged. Set ids are
// NOT stable across Adds — the cover drops every set contained in another,
// so a set that a grown one swallows vanishes and the ids after it shift —
// and the delta therefore compares the two covers by content.
type Delta struct {
	// NewEntities are the record ids ingested by this Add (the dense
	// suffix [oldLen, newLen) of the union dataset).
	NewEntities []core.EntityID
	// Changed are the ids of cover sets with no content-identical
	// counterpart in the previous cover: brand-new neighborhoods plus
	// every neighborhood whose membership shifted. Together with the
	// entity- and candidate-level Affected expansion these are the
	// neighborhoods a warm-started run must re-activate.
	Changed []int32
	// Additive reports whether the new cover only GREW: every previous set
	// is a subset of some set of the new cover. That is the warm-start
	// safety condition — a monotone matcher derives from a neighborhood at
	// least what it derived from any subset of it, so prior matches remain
	// valid committed evidence. When false (the total-cover patching moved
	// a boundary member elsewhere, so some previous neighborhood is in no
	// new one), prior evidence may be unreproducible from scratch and the
	// caller must fall back to a full re-run.
	Additive bool
	// Regressed lists the ids, in the previous cover, of the sets violating
	// Additive (empty when Additive) — diagnostics for the forced re-run
	// path.
	Regressed []int32
}

// NewIndex returns an empty index that scores on one worker. The
// configuration is validated once here; Add never re-validates.
func NewIndex(cfg Config) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newIndex(cfg, 1), nil
}

// BuildIndex returns an index of `shards` scoring workers (shards <= 0 means
// GOMAXPROCS) that has added d: its Cover is BuildCover(d, cfg), and further
// Adds extend it. A canceled ctx aborts with ctx.Err().
func BuildIndex(ctx context.Context, d *bib.Dataset, cfg Config, shards int) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ix := newIndex(cfg, shards)
	if _, _, err := ix.Add(ctx, d); err != nil {
		return nil, err
	}
	return ix, nil
}

func newIndex(cfg Config, shards int) *Index {
	return &Index{cfg: cfg, shards: shards, tab: newGramTable(cfg.Q)}
}

// Config returns the blocking configuration the index was built with.
// Covers are only comparable between identically configured indexes.
func (ix *Index) Config() Config { return ix.cfg }

// Len returns the number of records ingested so far.
func (ix *Index) Len() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return len(ix.tab.rowOf)
}

// Cover returns the cover built by the last Add (nil before the first).
func (ix *Index) Cover() *core.Cover {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.cover
}

// Add ingests the new suffix of the union dataset d — the records
// d.Refs[ix.Len():] — into the q-gram structures, rebuilds the total
// cover over all of d, and reports the delta. The caller owns dataset
// synthesis: d must extend the previously ingested records in place
// (names of records [0, ix.Len()) unchanged), which DatasetFromRecords
// guarantees for appended record batches.
//
// Cost is proportional to the delta: each name not seen before is scored
// once against the rows before it (Index.score), old rows are never
// re-scored, and only canopy emission plus cover patching — bookkeeping over
// cached candidate lists — runs over the full corpus. A canceled ctx aborts
// with ctx.Err() and leaves the index exactly as it was before the call, so
// the same Add can simply be retried.
func (ix *Index) Add(ctx context.Context, d *bib.Dataset) (*core.Cover, *Delta, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.add(ctx, d)
}

// AddFrom is Add for shared streams: it atomically verifies the index
// still sits at the caller's base record count before ingesting, and
// returns ErrStale if another Add advanced it first. This closes the
// check-then-act gap of probing Len before Add from concurrent or
// forked callers.
func (ix *Index) AddFrom(ctx context.Context, d *bib.Dataset, base int) (*core.Cover, *Delta, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if at := len(ix.tab.rowOf); at != base {
		return nil, nil, fmt.Errorf("%w (index at %d, caller at %d)", ErrStale, at, base)
	}
	return ix.add(ctx, d)
}

func (ix *Index) add(ctx context.Context, d *bib.Dataset) (*core.Cover, *Delta, error) {
	n, at := d.NumRefs(), ix.tab.mark()
	if n < at.records {
		return nil, nil, fmt.Errorf("canopy: index holds %d records but dataset has %d (records must only be appended)", at.records, n)
	}
	if n == at.records && ix.cover != nil {
		// Nothing arrived: the cover is unchanged, which is trivially
		// additive.
		return ix.cover, &Delta{Additive: true}, nil
	}
	cover, err := ix.ingest(ctx, d)
	if err != nil {
		// All or nothing: a half-ingested suffix would be inserted again,
		// under later ids, by the next Add.
		ix.tab.truncate(at)
		ix.cnt = ix.cnt[:at.rows]
		clear(ix.cands[at.rows:])
		ix.cands = ix.cands[:at.rows]
		for i, own := range ix.cands {
			for len(own) > 0 && int(own[len(own)-1].ID) >= at.rows {
				own = own[:len(own)-1]
			}
			ix.cands[i] = own
		}
		return nil, nil, err
	}
	delta := &Delta{NewEntities: make([]core.EntityID, 0, n-at.records)}
	for id := at.records; id < n; id++ {
		delta.NewEntities = append(delta.NewEntities, core.EntityID(id))
	}

	// Phase 3 — diff against the previous cover by content, each way through
	// the other cover's containment index: a new set with no equal
	// predecessor is Changed, and a previous set inside no new set —
	// a neighborhood that SHRANK, the case that invalidates warm starts —
	// is Regressed.
	prev := ix.cover
	for i, set := range cover.Sets {
		if prev == nil || superset(prev.Sets, prev.Containing, prev.NumEntities, set, func(j int32) bool { return len(prev.Sets[j]) == len(set) }) < 0 {
			delta.Changed = append(delta.Changed, int32(i))
		}
	}
	if prev != nil {
		for i, set := range prev.Sets {
			if superset(cover.Sets, cover.Containing, cover.NumEntities, set, func(int32) bool { return true }) < 0 {
				delta.Regressed = append(delta.Regressed, int32(i))
			}
		}
	}
	delta.Additive = len(delta.Regressed) == 0
	ix.cover = cover
	return cover, delta, nil
}

// ingest inserts the records past those the table holds into it, scores the
// rows they open into the candidate lists and builds the cover over all of d.
// It leaves ix.cover to the caller, who commits it on success and rolls the
// suffix back on error.
func (ix *Index) ingest(ctx context.Context, d *bib.Dataset) (*core.Cover, error) {
	names, from := d.Names(), len(ix.tab.names)
	for id := len(ix.tab.rowOf); id < d.NumRefs(); id++ {
		ix.tab.insert(names.Normalized(bib.RefID(id)))
	}
	if err := ix.score(ctx, from); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return finishCover(ctx, d, ix.cfg, ix.emit())
}

// score probes the rows from `from` on, each against the rows at or before
// it only — so a similar pair of rows is counted once, from its later row —
// dealt round-robin to scoringShards workers, the first on the calling
// goroutine with the index's own counters. A serial pass then merges in
// ascending row order: a row's list is its own probe, and the row is
// appended to the list of each earlier candidate, which keeps every list
// ascending and, similarity being symmetric, equal to a whole-table probe.
// ctx is checked before every probe; on ctx.Err() the lists of the rows
// before `from` are as they were.
func (ix *Index) score(ctx context.Context, from int) error {
	rows := len(ix.tab.names)
	ix.cnt = append(ix.cnt, make([]int32, rows-len(ix.cnt))...)
	ix.cands = append(ix.cands, make([][]scored, rows-from)...)
	fresh := ix.cands[from:]
	workers := scoringShards(ix.shards, len(fresh))
	errs := make([]error, workers)
	probeRows := func(w int, cnt []int32) {
		for i := w; i < len(fresh); i += workers {
			if errs[w] = ctx.Err(); errs[w] != nil {
				return
			}
			fresh[i] = ix.tab.probe(int32(from+i), ix.cfg.Loose, cnt)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			probeRows(w, make([]int32, rows))
		}()
	}
	probeRows(0, ix.cnt)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for x := int32(from); x < int32(rows); x++ {
		for _, c := range ix.cands[x] {
			if c.ID != x {
				ix.cands[c.ID] = append(ix.cands[c.ID], scored{ID: x, Sim: c.Sim})
			}
		}
	}
	return nil
}

// emit runs the canopy emission loop over the candidate lists (already
// loose-filtered and in row order).
func (ix *Index) emit() [][]core.EntityID {
	e := newEmitter(ix.cfg, ix.tab)
	for seed, row := range ix.tab.rowOf {
		e.emit(core.EntityID(seed), ix.cands[row])
	}
	return e.canopies
}
