package serve

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	cem "repro"
	"repro/match"
)

// testRecords returns the standard golden-seed corpus in record form.
func testRecords(t *testing.T, kind cem.DatasetKind) []cem.Record {
	t.Helper()
	records, err := cem.GenerateRecords(kind, 0.25, 42)
	if err != nil {
		t.Fatal(err)
	}
	return records
}

// testPipeline builds the committer's pipeline: SMP × mln, plus any
// extra runner options.
func testPipeline(t *testing.T, ropts ...cem.RunnerOption) *cem.Pipeline {
	t.Helper()
	opts := []cem.PipelineOption{
		cem.WithScheme(cem.SchemeSMP),
		cem.WithDatasetName("serve-test"),
	}
	if len(ropts) > 0 {
		opts = append(opts, cem.WithRunnerOptions(ropts...))
	}
	pipe, err := cem.NewPipeline(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return pipe
}

// batchCuts splits records into a base load plus trailing batches.
func batchCuts(records []cem.Record) [][]cem.Record {
	n := len(records)
	cuts := []int{n * 7 / 10, n * 8 / 10, n * 9 / 10, n}
	var out [][]cem.Record
	lo := 0
	for _, hi := range cuts {
		out = append(out, records[lo:hi])
		lo = hi
	}
	return out
}

// TestCommitterFoldMatchesCold: applying a stream of batches lands on
// the byte-identical match set of a cold run over the same arrival
// order, with the trailing batches warm-started.
func TestCommitterFoldMatchesCold(t *testing.T) {
	records := testRecords(t, cem.HEPTH)
	ctx := context.Background()

	cold, err := testPipeline(t).Run(ctx, records)
	if err != nil {
		t.Fatal(err)
	}

	m := NewMetrics()
	c, err := NewCommitter(testPipeline(t), WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	var last *Committed
	var sum match.RunStats
	for i, batch := range batchCuts(records) {
		last, err = c.Apply(ctx, batch)
		if err != nil {
			t.Fatalf("batch %d: %v", i+1, err)
		}
		if last.Seq != i+1 {
			t.Errorf("batch %d committed at seq %d", i+1, last.Seq)
		}
		if i > 0 && !last.Result.WarmStarted {
			t.Errorf("batch %d did not warm-start", i+1)
		}
		st := last.Result.Stats
		sum.MatcherCalls += st.MatcherCalls
		sum.Cache.Hits += st.Cache.Hits
		sum.Cache.Misses += st.Cache.Misses
		sum.Cache.Invalidations += st.Cache.Invalidations
		sum.Reassignments += st.Reassignments
		sum.RetriedSends += st.RetriedSends
		sum.LateBatchesDropped += st.LateBatchesDropped
	}
	if got, want := last.RenderMatches(), renderPipelineMatches(cold); got != want {
		t.Errorf("streamed matches diverge from cold run:\nstream: %d bytes\ncold:   %d bytes", len(got), len(want))
	}
	if snap := c.Snapshot(); snap != last {
		t.Error("Snapshot does not return the last committed state")
	}
	// The metrics count each committed update once: their counters are
	// the sums of the updates' RunStats.
	if b, cold, warm, forced := m.CommittedBatches.Value(), m.UpdatesCold.Value(), m.UpdatesWarm.Value(), m.UpdatesForced.Value(); b != 4 || cold != 1 || warm != 3 || forced != 0 {
		t.Errorf("metrics count %d batches = %d cold + %d warm + %d forced, want 4 = 1 cold + 3 warm", b, cold, warm, forced)
	}
	if got := m.CommittedRecords.Value(); got != int64(len(records)) {
		t.Errorf("metrics count %d committed records, want %d", got, len(records))
	}
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"matcher calls", m.MatcherCalls.Value(), int64(sum.MatcherCalls)},
		{"memo hits", m.MemoHits.Value(), sum.Cache.Hits},
		{"memo misses", m.MemoMisses.Value(), sum.Cache.Misses},
		{"memo invalidations", m.MemoInvals.Value(), sum.Cache.Invalidations},
		{"reassignments", m.Reassignments.Value(), int64(sum.Reassignments)},
		{"retried sends", m.RetriedSends.Value(), int64(sum.RetriedSends)},
		{"late batches", m.LateBatches.Value(), int64(sum.LateBatchesDropped)},
	} {
		if c.got != c.want {
			t.Errorf("metrics count %d %s, the committed updates' RunStats sum to %d", c.got, c.name, c.want)
		}
	}
	if sum.MatcherCalls == 0 || sum.Cache.Misses == 0 {
		t.Errorf("the stream made %d matcher calls and %d memo misses, want both > 0", sum.MatcherCalls, sum.Cache.Misses)
	}
}

// renderPipelineMatches renders a PipelineResult's matches in the
// canonical fixture form.
func renderPipelineMatches(res *cem.PipelineResult) string { return RenderMatches(res.Matches) }

// TestCommitterJournalRecoverFold: a fresh committer on the same
// journal (and no store) replays the batches into the identical state and
// continues the stream at the right seq.
func TestCommitterJournalRecoverFold(t *testing.T) {
	records := testRecords(t, cem.HEPTH)
	ctx := context.Background()
	dir := t.TempDir()
	batches := batchCuts(records)

	c1, err := NewCommitter(testPipeline(t), WithJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range batches[:3] {
		if _, err := c1.Apply(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	want := c1.Snapshot()

	c2, err := NewCommitter(testPipeline(t), WithJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	n, err := c2.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("recovered %d batches, want 3", n)
	}
	got := c2.Snapshot()
	if got.Seq != want.Seq || got.RenderMatches() != want.RenderMatches() {
		t.Errorf("recovered state diverges: seq %d vs %d, %d vs %d matches",
			got.Seq, want.Seq, got.Matches(), want.Matches())
	}

	// The stream continues past recovery: the 4th batch lands at seq 4
	// and journals as batch-000004.
	last, err := c2.Apply(ctx, batches[3])
	if err != nil {
		t.Fatal(err)
	}
	if last.Seq != 4 {
		t.Errorf("post-recovery batch committed at seq %d, want 4", last.Seq)
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "batch-000004.tsv")); len(m) != 1 {
		t.Error("post-recovery batch did not journal as batch-000004.tsv")
	}
	cold, err := testPipeline(t).Run(ctx, records)
	if err != nil {
		t.Fatal(err)
	}
	if last.RenderMatches() != renderPipelineMatches(cold) {
		t.Error("recovered + continued stream diverges from the cold run")
	}
}

// TestCommitterRejectsBadBatch: an invalid batch is refused without
// burning a journal slot or touching the committed state.
func TestCommitterRejectsBadBatch(t *testing.T) {
	records := testRecords(t, cem.HEPTH)
	ctx := context.Background()
	dir := t.TempDir()

	c, err := NewCommitter(testPipeline(t), WithJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Apply(ctx, records[:50]); err != nil {
		t.Fatal(err)
	}
	before := c.Snapshot()

	// Keys the journal cannot hold, or not read back, are refused before
	// they are journaled.
	for name, key := range map[string]string{
		"empty":      "",
		"line break": "doe\nj",
		"1 MiB":      strings.Repeat("x", 1<<20+10),
	} {
		batch := []cem.Record{records[50], cem.BasicRecord{Key: key, Group: -1, Gold: -1}}
		if _, err := c.Apply(ctx, batch); err == nil {
			t.Fatalf("batch with a %s key accepted", name)
		}
	}
	if _, err := c.Apply(ctx, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if c.Snapshot() != before {
		t.Error("failed batch replaced the committed state")
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "batch-*.tsv")); len(m) != 1 {
		t.Errorf("journal holds %d batches after rejections, want 1", len(m))
	}

	// The next valid batch takes seq 2 and the journal stays contiguous.
	last, err := c.Apply(ctx, records[50:80])
	if err != nil {
		t.Fatal(err)
	}
	if last.Seq != 2 {
		t.Errorf("next batch at seq %d, want 2", last.Seq)
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "batch-000002.tsv")); len(m) != 1 {
		t.Error("next batch did not journal as batch-000002.tsv")
	}
	c2, err := NewCommitter(testPipeline(t), WithJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := c2.Recover(ctx); n != 2 || err != nil {
		t.Errorf("Recover restored %d batches (%v), want 2", n, err)
	}
}

// TestCommittedViews: structural invariants of the derived read
// model — every entity's cluster contains itself and all its direct
// match partners, views agree across members, and the canonical dump
// matches the sorted pair list.
func TestCommittedViews(t *testing.T) {
	records := testRecords(t, cem.DBLP)
	ctx := context.Background()
	c, err := NewCommitter(testPipeline(t))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := c.Apply(ctx, records)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Matches() == 0 {
		t.Fatal("corpus produced no matches; the view test is vacuous")
	}
	if snap.Entities() != len(records) {
		t.Fatalf("snapshot has %d entities for %d records", snap.Entities(), len(records))
	}

	checked := 0
	for _, rec := range records {
		key := rec.RecordKey()
		v, ok := snap.Lookup(key)
		if !ok {
			t.Fatalf("committed record key %q not found", key)
		}
		for _, e := range v.Entities {
			inCluster := map[int32]bool{}
			for _, m := range e.Cluster {
				inCluster[m.ID] = true
				if snap.names[m.ID] != m.Key {
					t.Fatalf("cluster member %d reported key %q, dataset says %q", m.ID, m.Key, snap.names[m.ID])
				}
			}
			if !inCluster[e.ID] {
				t.Fatalf("entity %d's cluster omits itself", e.ID)
			}
			for _, m := range e.Matches {
				if !inCluster[m.ID] {
					t.Fatalf("entity %d's match partner %d missing from its cluster", e.ID, m.ID)
				}
			}
		}
		cv, ok := snap.Cluster(key)
		if !ok || len(cv.Clusters) == 0 {
			t.Fatalf("Cluster(%q) empty", key)
		}
		checked++
		if checked >= 200 {
			break
		}
	}

	if _, ok := snap.Lookup("no-such-record-key"); ok {
		t.Error("unknown key resolved")
	}
	dump := snap.RenderMatches()
	lines := strings.Count(dump, "\n")
	if lines != snap.Matches()+1 {
		t.Errorf("RenderMatches has %d lines for %d matches", lines, snap.Matches())
	}
}

// TestEmptySnapshot: the Seq-0 state answers reads without panicking.
func TestEmptySnapshot(t *testing.T) {
	c, err := NewCommitter(testPipeline(t))
	if err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	if snap.Seq != 0 || snap.Records() != 0 || snap.Matches() != 0 || snap.Entities() != 0 {
		t.Errorf("empty snapshot not empty: %+v", snap)
	}
	if _, ok := snap.Lookup("x"); ok {
		t.Error("empty snapshot resolved a key")
	}
	if got := snap.RenderMatches(); got != "# 0 matches\n" {
		t.Errorf("empty dump = %q", got)
	}
}

// TestCommitterJournalTruncationAtEveryByte: a crash while the trailing
// journal file was being written can leave ANY byte-length prefix of it
// on disk. For every such prefix, Recover must quarantine the torn file
// (rename it .corrupt, count it, log it) and restore exactly the intact
// batches before it — never error out, never mistake a clean-parsing
// prefix for a complete batch.
func TestCommitterJournalTruncationAtEveryByte(t *testing.T) {
	records := testRecords(t, cem.HEPTH)
	base, tail := records[:40], records[40:42]
	ctx := context.Background()

	// Journal both batches once; the template dir's files are the ground
	// truth every truncation trial copies from.
	tmpl := t.TempDir()
	c0, err := NewCommitter(testPipeline(t), WithJournal(tmpl))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c0.Apply(ctx, base); err != nil {
		t.Fatal(err)
	}
	if _, err := c0.Apply(ctx, tail); err != nil {
		t.Fatal(err)
	}
	full := c0.Snapshot()

	basePath := filepath.Join(tmpl, "batch-000001.tsv")
	lastPath := filepath.Join(tmpl, "batch-000002.tsv")
	baseData, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	lastData, err := os.ReadFile(lastPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(lastData), fmt.Sprintf("# journal-end %d\n", len(tail))) {
		t.Fatalf("journal file missing commit footer:\n%s", lastData)
	}

	// The state Recover should land on when the trailing file is lost.
	cBase, err := NewCommitter(testPipeline(t))
	if err != nil {
		t.Fatal(err)
	}
	baseSnap, err := cBase.Apply(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	wantRender := baseSnap.RenderMatches()

	// Every cut short of the footer's final newline loses content and
	// must quarantine. The last two lengths — the intact file, and the
	// file missing only that terminator byte — still hold every record
	// plus the full footer count, and must recover both batches instead
	// (checked after the loop).
	for cut := 0; cut < len(lastData)-1; cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "batch-000001.tsv"), baseData, 0o644); err != nil {
			t.Fatal(err)
		}
		torn := filepath.Join(dir, "batch-000002.tsv")
		if err := os.WriteFile(torn, lastData[:cut], 0o644); err != nil {
			t.Fatal(err)
		}

		m := NewMetrics()
		logged := 0
		c, err := NewCommitter(testPipeline(t), WithJournal(dir), WithMetrics(m),
			WithCommitterLog(func(string, ...any) { logged++ }))
		if err != nil {
			t.Fatal(err)
		}
		n, err := c.Recover(ctx)
		if err != nil {
			t.Fatalf("cut at byte %d/%d: recover failed: %v", cut, len(lastData), err)
		}
		if n != 1 {
			t.Fatalf("cut at byte %d: recovered %d batches, want 1", cut, n)
		}
		if _, err := os.Stat(torn + ".corrupt"); err != nil {
			t.Fatalf("cut at byte %d: torn file not quarantined: %v", cut, err)
		}
		if _, err := os.Stat(torn); !os.IsNotExist(err) {
			t.Fatalf("cut at byte %d: torn file still present", cut)
		}
		if got := m.JournalQuarantined.Value(); got != 1 {
			t.Fatalf("cut at byte %d: JournalQuarantined = %d, want 1", cut, got)
		}
		if logged == 0 {
			t.Fatalf("cut at byte %d: quarantine was not logged", cut)
		}
		snap := c.Snapshot()
		if snap.Seq != 1 || snap.RenderMatches() != wantRender {
			t.Fatalf("cut at byte %d: recovered state diverges (seq %d)", cut, snap.Seq)
		}
	}

	// Re-applying the lost batch after a torn recovery reconverges on
	// the full state, reusing the quarantined sequence number.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "batch-000001.tsv"), baseData, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "batch-000002.tsv"), lastData[:len(lastData)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	c, err := NewCommitter(testPipeline(t), WithJournal(dir), WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	relast, err := c.Apply(ctx, tail)
	if err != nil {
		t.Fatal(err)
	}
	if relast.Seq != 2 || relast.RenderMatches() != full.RenderMatches() {
		t.Errorf("re-applied batch after quarantine diverges from the uninterrupted stream")
	}
	if got, _ := filepath.Glob(filepath.Join(dir, "batch-000002.tsv")); len(got) != 1 {
		t.Error("re-applied batch did not reuse the quarantined sequence number")
	}

	// The intact file, and the file missing only the footer's trailing
	// newline, are both content-complete: full recovery, no quarantine.
	for _, end := range []int{len(lastData), len(lastData) - 1} {
		intact := t.TempDir()
		if err := os.WriteFile(filepath.Join(intact, "batch-000001.tsv"), baseData, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(intact, "batch-000002.tsv"), lastData[:end], 0o644); err != nil {
			t.Fatal(err)
		}
		mi := NewMetrics()
		ci, err := NewCommitter(testPipeline(t), WithJournal(intact), WithMetrics(mi))
		if err != nil {
			t.Fatal(err)
		}
		n, err := ci.Recover(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if n != 2 || mi.JournalQuarantined.Value() != 0 {
			t.Errorf("content-complete journal (%d bytes): recovered %d batches with %d quarantined, want 2/0",
				end, n, mi.JournalQuarantined.Value())
		}
		if got := ci.Snapshot().RenderMatches(); got != full.RenderMatches() {
			t.Errorf("content-complete journal (%d bytes): recovered state diverges from the original stream", end)
		}
	}
}

// TestCommitterRecoverRefusesMidStreamCorruption: a damaged file that is
// NOT the trailing one means committed history after it would be lost —
// Recover must refuse rather than silently drop batches.
func TestCommitterRecoverRefusesMidStreamCorruption(t *testing.T) {
	records := testRecords(t, cem.HEPTH)
	ctx := context.Background()
	dir := t.TempDir()

	c1, err := NewCommitter(testPipeline(t), WithJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Apply(ctx, records[:40]); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Apply(ctx, records[40:60]); err != nil {
		t.Fatal(err)
	}

	first := filepath.Join(dir, "batch-000001.tsv")
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(first, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := NewCommitter(testPipeline(t), WithJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Recover(ctx); err == nil {
		t.Fatal("recover accepted a journal with mid-stream corruption")
	} else if !strings.Contains(err.Error(), "batch-000001.tsv") {
		t.Errorf("error does not name the damaged file: %v", err)
	}
	if _, serr := os.Stat(first); serr != nil {
		t.Error("mid-stream damaged file was moved; it must be left for inspection")
	}
}
