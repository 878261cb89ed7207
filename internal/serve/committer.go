package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	cem "repro"
	"repro/internal/bib"
	"repro/internal/store"
	"repro/match"
)

// Committer owns the single-writer commit path of the online service:
// batches of records are applied serially through Pipeline.Update, each
// batch optionally journaled to disk while it runs, and every
// successful update is published as a new immutable Committed snapshot
// via an atomic pointer swap. Readers call Snapshot at any time and get
// the last committed state, never a torn intermediate.
//
// The same Committer drives `emmatch -ingest` batch replay (without a
// journal), so the CLI's replay semantics and the service's serving
// semantics are one code path and cannot drift.
type Committer struct {
	pipe    *cem.Pipeline
	journal *store.Trail // nil when not journaling
	store   match.Store
	metrics *Metrics
	logf    func(format string, args ...any)

	mu         sync.Mutex // serializes Apply/Recover
	journalSeq int        // highest journaled batch number
	cur        atomic.Pointer[Committed]
}

// CommitterOption customizes a Committer.
type CommitterOption func(*Committer)

// WithJournal persists every incoming batch to dir (created if missing)
// as batch-NNNNNN.tsv, complete before any state that includes it is
// saved or published — a durable store.Trail, so an acknowledged batch
// survives a power cut, not only a crash mid-update: Recover replays the
// journal into an identical state. Without a journal
// the committer is ephemeral (the replay-CLI mode).
func WithJournal(dir string) CommitterOption {
	return func(c *Committer) {
		c.journal = &store.Trail{Dir: dir, Format: "batch-%06d.tsv", Durable: true, Logf: c.quarantined}
	}
}

// WithStore persists every committed state into s (cem.SaveState after
// each successful update, before the state is published), so a restart
// reopens the store snapshot — Pipeline.Reopen, zero matcher calls —
// instead of replaying the journal through the engine. The committer is
// the store's one writer: one state blob (snapshot and postings) per
// commit. It does not close the store.
func WithStore(s match.Store) CommitterOption {
	return func(c *Committer) { c.store = s }
}

// WithMetrics wires the commit path into a metrics registry.
func WithMetrics(m *Metrics) CommitterOption {
	return func(c *Committer) { c.metrics = m }
}

// WithCommitterLog installs a logger for recovery events (quarantined
// journal files). Nil (the default) is silent.
func WithCommitterLog(logf func(format string, args ...any)) CommitterOption {
	return func(c *Committer) { c.logf = logf }
}

// NewCommitter builds a committer over a pipeline. The pipeline's
// scheme must have an incremental path (NO-MP/SMP/MMP) — Update rejects
// FULL/UB on the first batch otherwise.
func NewCommitter(pipe *cem.Pipeline, opts ...CommitterOption) (*Committer, error) {
	if pipe == nil {
		return nil, fmt.Errorf("serve: nil pipeline")
	}
	c := &Committer{pipe: pipe}
	for _, o := range opts {
		o(c)
	}
	c.cur.Store(emptyCommitted())
	return c, nil
}

// Snapshot returns the current committed state. Never nil; before the
// first commit it is the empty Seq-0 state.
func (c *Committer) Snapshot() *Committed { return c.cur.Load() }

// Apply journals and applies one batch of records, publishing the new
// state on success. Batches are applied strictly serially (callers may
// race; a mutex orders them). A batch with a key checkKeys refuses is
// refused before it is journaled.
//
// The journal entry is written on a goroutine while Pipeline.Update runs;
// Apply waits for both, and only then saves the state (WithStore) and
// publishes it (commit). So a journal entry is complete before any state that
// includes its batch is saved or published — the invariant Recover and its
// torn-tail quarantine rely on. On failure nothing is saved or published:
//   - A journal error is returned as is. An Update that succeeded beside it
//     has still advanced the pipeline's shared blocking index, so the next
//     batch's Update finds the index past its prior and rebuilds it from
//     the committed records (canopy.ErrStale), as after a SaveState
//     failure.
//   - A batch that failed because the context was canceled (a shutdown or
//     kill mid update) KEEPS its journal entry — the records were
//     accepted, and Recover finishes the interrupted commit on restart.
//   - Any other failure (invalid records, a SaveState error) removes the
//     journal entry, once its write has finished, and reports the error.
func (c *Committer) Apply(ctx context.Context, records []cem.Record) (*Committed, error) {
	if len(records) == 0 {
		return nil, fmt.Errorf("serve: empty batch")
	}
	if err := checkKeys(records); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	journaled := make(chan error, 1)
	go func() { journaled <- c.journalBatch(records) }()
	start := time.Now()
	res, err := c.update(ctx, records)
	took := time.Since(start)
	// journalSeq is the goroutine's until its result arrives.
	if jerr := <-journaled; jerr != nil {
		return nil, jerr
	}
	var state *Committed
	if err == nil {
		state, err = c.commit(records, res, took)
	}
	if err != nil && c.journal != nil && ctx.Err() == nil {
		// The batch itself was rejected (not a kill): drop it from the
		// journal so a restart does not replay a poison batch. Best
		// effort, as the rejection is what the caller must see.
		_ = c.journal.Remove(c.journalSeq)
		c.journalSeq--
	}
	return state, err
}

// update runs Pipeline.Update on the committed state. Caller holds mu.
func (c *Committer) update(ctx context.Context, records []cem.Record) (*cem.PipelineResult, error) {
	if c.metrics != nil {
		c.metrics.BeginUpdate()
	}
	res, err := c.pipe.Update(ctx, c.cur.Load().Result, records)
	if c.metrics != nil {
		c.metrics.EndUpdate()
		if err != nil {
			c.metrics.UpdateErrors.Inc()
		}
	}
	return res, err
}

// commit saves the result of an update that took took and publishes it as
// the next state. The state's read views are built on a goroutine while
// the state is saved: both only read res. Caller holds mu.
func (c *Committer) commit(records []cem.Record, res *cem.PipelineResult, took time.Duration) (*Committed, error) {
	seq := c.cur.Load().Seq + 1
	built := make(chan *Committed, 1)
	go func() { built <- newCommitted(seq, res) }()
	var err error
	if c.store != nil {
		err = cem.SaveState(c.store, res, seq)
	}
	state := <-built
	if err != nil {
		// Durable-state-first: the state is saved before it is published. A
		// SaveState error leaves the store's snapshot at the previous seq,
		// so the failed batch is like any rejected one: nothing is
		// published, and Apply drops it from the journal.
		if c.metrics != nil {
			c.metrics.UpdateErrors.Inc()
		}
		return nil, fmt.Errorf("serve: saving store state at seq %d: %w", seq, err)
	}
	if c.metrics != nil {
		m := c.metrics
		m.CommittedBatches.Inc()
		m.CommittedRecords.Add(int64(len(records)))
		switch {
		case res.WarmStarted:
			m.UpdatesWarm.Inc()
		case res.ForcedRerun:
			m.UpdatesForced.Inc()
		default:
			m.UpdatesCold.Inc()
		}
		m.MatcherCalls.Add(int64(res.Stats.MatcherCalls))
		m.MemoHits.Add(res.Stats.Cache.Hits)
		m.MemoMisses.Add(res.Stats.Cache.Misses)
		m.MemoInvals.Add(res.Stats.Cache.Invalidations)
		m.Reassignments.Add(int64(res.Stats.Reassignments))
		m.RetriedSends.Add(int64(res.Stats.RetriedSends))
		m.LateBatches.Add(int64(res.Stats.LateBatchesDropped))
		m.UpdateSeconds.Observe(took.Seconds())
		m.BlockingSeconds.Observe(res.BlockingTime.Seconds())
		m.MatchingSeconds.Observe(res.MatchingTime.Seconds())
		m.BatchRecords.Observe(float64(len(records)))
		m.BatchCalls.Observe(float64(res.Stats.MatcherCalls))
	}
	c.cur.Store(state)
	return state, nil
}

// checkKeys refuses a batch whose records the journal cannot hold: an
// empty key, or one bib.CheckName refuses (a line break, or a line longer
// than a journal read takes back). The service refuses such a batch at
// its door, before it can share a journal entry with accepted requests.
func checkKeys(records []cem.Record) error {
	for i, r := range records {
		key := r.RecordKey()
		if key == "" {
			return fmt.Errorf("record %d has an empty key", i)
		}
		if err := bib.CheckName(key); err != nil {
			return fmt.Errorf("record %d: key %w", i, err)
		}
	}
	return nil
}

// journalFooter marks the end of a fully written journal file: a
// comment line (so ReadRecords ignores it) carrying the record count.
// A file missing it — or carrying a count the records don't add up to —
// was torn mid-write; Recover refuses to treat a clean-parsing prefix
// of a torn file as a complete batch.
const journalFooter = "# journal-end %d\n"

// journalBatch commits a batch to the journal, beside its Update: the
// records TSV and the footer, as one entry. A no-op without a journal.
func (c *Committer) journalBatch(records []cem.Record) error {
	if c.journal == nil {
		return nil
	}
	var buf bytes.Buffer
	err := cem.WriteRecords(&buf, fmt.Sprintf("batch-%06d", c.journalSeq+1), records)
	if err == nil {
		fmt.Fprintf(&buf, journalFooter, len(records))
		err = c.journal.Commit(c.journalSeq+1, buf.Bytes())
	}
	if err != nil {
		return fmt.Errorf("serve: journal: %w", err)
	}
	c.journalSeq++
	return nil
}

// quarantined is the journal's Logf: called once per torn trailing batch
// file Recover renamed aside.
func (c *Committer) quarantined(format string, args ...any) {
	if c.metrics != nil {
		c.metrics.JournalQuarantined.Inc()
	}
	c.log(format, args...)
}

// log reports a recovery event to the configured logger, if any.
func (c *Committer) log(format string, args ...any) {
	if c.logf != nil {
		c.logf("recover: "+format, args...)
	}
}

// Recover rebuilds the committed state from the journal: the service's
// restart path. It scans the journal, restores the base — the store
// snapshot SaveState wrote at the last commit (WithStore; zero matcher
// work, see reopenFromStore), else the empty state — and folds the
// batches past that base through Pipeline.Update exactly as they were
// originally applied, equivalent by the incremental differential
// guarantee; past a snapshot, those are only the batches accepted but
// killed before their commit completed. Returns the number of journaled
// batches restored.
//
// A crash can tear the journal itself: die inside a journal commit and
// the trailing batch file may hold half a record line, or parse cleanly
// yet stop short of its commit footer. Such a file describes a batch that
// was never committed: Apply completes a journal entry before any state
// that includes its batch is saved or published. So the scan quarantines
// it (renamed to <file>.corrupt, counted in metrics, logged) and restores
// the intact prefix. A damaged file anywhere BUT the tail is a hard error:
// dropping it would silently lose the committed batches journaled after it.
func (c *Committer) Recover(ctx context.Context) (int, error) {
	if c.journal == nil {
		return 0, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	var batches [][]cem.Record
	err := c.journal.Scan(func(_ int, data []byte) error {
		recs, err := parseJournalBatch(data)
		if err == nil {
			batches = append(batches, recs)
		}
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("serve: recover: %w", err)
	}
	c.journalSeq = len(batches)
	// A snapshot that cannot serve (none yet, one the journal does not
	// cover, one Reopen refuses) leaves the empty base: the journal stays
	// the source of truth.
	base := 0
	if c.store != nil {
		base = c.reopenFromStore(ctx, batches)
	}
	for i, recs := range batches[base:] {
		start := time.Now()
		res, err := c.update(ctx, recs)
		if err == nil {
			_, err = c.commit(recs, res, time.Since(start))
		}
		if err != nil {
			return base + i, fmt.Errorf("serve: recover: replaying batch %d: %w", base+i+1, err)
		}
	}
	return len(batches), nil
}

// reopenFromStore attempts the restart-without-replay path: SaveState
// runs once per committed batch, so a snapshot at seq N covers exactly the
// first N journaled batches; Pipeline.Reopen rebuilds the state over that
// record stream from the store without invoking the matcher. On success
// the committed state is installed and N returned; any inconsistency — no
// snapshot yet, a snapshot the journal does not cover, a reopen
// validation failure — returns 0: the store is only ever a shortcut.
func (c *Committer) reopenFromStore(ctx context.Context, batches [][]cem.Record) int {
	seq, err := cem.StateSeq(c.store)
	if err != nil {
		if !errors.Is(err, match.ErrBlobNotFound) {
			c.log("store snapshot unreadable, replaying the journal: %v", err)
		}
		return 0
	}
	if seq <= 0 || seq > len(batches) {
		c.log("store snapshot at seq %d does not line up with the journal (%d batches), replaying", seq, len(batches))
		return 0
	}
	records := slices.Concat(batches[:seq]...)
	res, seq, err := c.pipe.Reopen(ctx, records, c.store)
	if err != nil {
		c.log("store reopen failed, replaying the journal: %v", err)
		return 0
	}
	c.cur.Store(newCommitted(seq, res))
	if c.metrics != nil {
		c.metrics.StoreReopens.Inc()
	}
	c.log("reopened store state at seq %d (%d records, %d matches) with no replay", seq, len(records), res.Matches.Len())
	return seq
}

// parseJournalBatch parses one journal entry and verifies it is
// complete: the records parse, and the last line is the commit footer
// carrying exactly their count. Any truncation that loses content fails
// here — cutting a record line breaks the parse, and cutting at a line
// boundary (a clean-parsing prefix) removes or shortens the footer,
// which is the final line of every fully journaled batch. A file
// missing only the footer's trailing newline still holds every record
// and the full count, so it is accepted: quarantining it would discard
// an accepted batch for one lost terminator byte.
func parseJournalBatch(data []byte) ([]cem.Record, error) {
	_, recs, err := cem.ReadRecords(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	body := strings.TrimRight(string(data), "\n")
	last := body[strings.LastIndexByte(body, '\n')+1:]
	if want := fmt.Sprintf("# journal-end %d", len(recs)); last != want {
		return nil, fmt.Errorf("missing or mismatched commit footer (file was torn mid-write)")
	}
	return recs, nil
}
