package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	cem "repro"
	"repro/internal/store"
	"repro/internal/wire"
	"repro/match"
)

// TestServiceStoreShutdownReopen runs shutdownReopen on a state
// directory that names its store backend.
func TestServiceStoreShutdownReopen(t *testing.T) { shutdownReopen(t, "disk") }

// shutdownReopen pins the restart-without-replay contract at the
// service level: a service on a state directory with the given store
// backend drains its queue on a graceful shutdown, refuses ingest after
// it, and the restart reopens the store snapshot — the matcher is not
// called, not a single neighborhood is evaluated, and the committed
// state is byte-identical — then continues the stream at the next seq.
func shutdownReopen(t *testing.T, backend string) {
	records := testRecords(t, cem.HEPTH)
	state := t.TempDir()

	svc, err := New(context.Background(), Config{StateDir: state, Store: backend, Batching: fastBatching})
	if err != nil {
		t.Fatal(err)
	}
	batches := batchCuts(records)
	for _, b := range batches[:3] {
		ingestWait(t, svc, b)
	}
	// The last batch is NOT waited for: Shutdown must flush it.
	if _, err := svc.Ingest(context.Background(), batches[3]); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	want := svc.Snapshot()
	if want.Records() != len(records) {
		t.Fatalf("shutdown flushed %d records, want %d (drain lost the queued batch)", want.Records(), len(records))
	}
	if _, err := svc.Ingest(context.Background(), batches[0]); err == nil {
		t.Fatal("ingest accepted after shutdown")
	}

	var evals atomic.Int64
	svc2, err := New(context.Background(), Config{
		StateDir: state, Store: backend, Batching: fastBatching,
		RunnerOptions: []cem.RunnerOption{cem.WithProgress(func(match.ProgressEvent) { evals.Add(1) })},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Kill()
	got := svc2.Snapshot()
	if got.Seq != want.Seq || got.RenderMatches() != want.RenderMatches() {
		t.Fatalf("store restart diverges: seq %d vs %d, %d vs %d matches",
			got.Seq, want.Seq, got.Matches(), want.Matches())
	}
	if n := evals.Load(); n != 0 {
		t.Errorf("store restart evaluated %d neighborhoods, want 0 (reopen, not replay)", n)
	}
	if calls := svc2.metrics.MatcherCalls.Value(); calls != 0 {
		t.Errorf("store restart made %d matcher calls, want 0", calls)
	}
	if n := svc2.metrics.StoreReopens.Value(); n != 1 {
		t.Errorf("emserve_store_reopens_total = %d, want 1", n)
	}
	var m strings.Builder
	if err := svc2.metrics.WritePrometheus(&m, GaugeValues{}); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"emserve_store_reopens_total 1", "emserve_matcher_calls_total 0"} {
		if !strings.Contains(m.String(), line+"\n") {
			t.Errorf("/metrics after store restart is missing %q", line)
		}
	}

	// The stream continues incrementally on the reopened state and stays
	// equal to an uninterrupted cold run over the same arrival order.
	extra, err := cem.GenerateRecords(cem.DBLP, 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	last := ingestWait(t, svc2, extra)
	if last.Seq != want.Seq+1 {
		t.Errorf("post-restart batch at seq %d, want %d", last.Seq, want.Seq+1)
	}
	cold, err := testPipeline(t).Run(context.Background(), append(append([]cem.Record{}, records...), extra...))
	if err != nil {
		t.Fatal(err)
	}
	if last.RenderMatches() != renderPipelineMatches(cold) {
		t.Error("reopened + continued stream diverges from the cold run")
	}
}

// TestServiceStoreKillRestart runs killRestart on a state directory
// that names its store backend.
func TestServiceStoreKillRestart(t *testing.T) { killRestart(t, "disk") }

// killRestart: a service on a state directory with the given store
// backend, killed mid-update (at a round boundary, mid-batch), restarts
// by reopening the snapshot of the last COMMITTED batch and folding only
// the interrupted batch through the engine — the journaled batch is not
// lost, not duplicated, the state equals the uninterrupted run, and the
// remaining batches stream in as if nothing happened.
func killRestart(t *testing.T, backend string) {
	records := testRecords(t, cem.HEPTH)
	state := t.TempDir()
	batches := batchCuts(records)

	// Arm a progress hook that cancels the service's root context at the
	// second round of the batch it is armed for.
	ctx, cancel := context.WithCancel(context.Background())
	var armed atomic.Bool
	var once sync.Once
	svc, err := New(ctx, Config{
		StateDir: state, Store: backend, Batching: fastBatching,
		RunnerOptions: []cem.RunnerOption{cem.WithProgress(func(e match.ProgressEvent) {
			if armed.Load() && e.Round >= 2 {
				once.Do(cancel)
			}
		})},
	})
	if err != nil {
		t.Fatal(err)
	}
	ingestWait(t, svc, batches[0])

	armed.Store(true)
	done, err := svc.Ingest(context.Background(), batches[1])
	if err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-done:
		if res.Err == nil {
			t.Fatal("kill mid-batch did not abort the update (batch committed)")
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("killed batch never resolved")
	}
	svc.Kill()
	if svc.Snapshot().Seq != 1 {
		t.Fatalf("killed service exposes seq %d, want the last committed 1", svc.Snapshot().Seq)
	}

	svc2, err := New(context.Background(), Config{StateDir: state, Store: backend, Batching: fastBatching})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Kill()
	got := svc2.Snapshot()
	if got.Seq != 2 {
		t.Fatalf("restart recovered to seq %d, want 2 (interrupted batch finished)", got.Seq)
	}
	if n := svc2.metrics.StoreReopens.Value(); n != 1 {
		t.Errorf("emserve_store_reopens_total = %d, want 1 (seq-1 snapshot reopened before the fold)", n)
	}
	wantRecs := len(batches[0]) + len(batches[1])
	if got.Records() != wantRecs {
		t.Fatalf("restart holds %d records, want %d (lost or duplicated records)", got.Records(), wantRecs)
	}
	cold, err := testPipeline(t).Run(context.Background(), records[:wantRecs])
	if err != nil {
		t.Fatal(err)
	}
	if got.RenderMatches() != renderPipelineMatches(cold) {
		t.Error("store kill + restart diverges from the uninterrupted run")
	}

	// The remaining batches stream in as if nothing happened.
	var last *Committed
	for _, b := range batches[2:] {
		last = ingestWait(t, svc2, b)
	}
	coldAll, err := testPipeline(t).Run(context.Background(), records)
	if err != nil {
		t.Fatal(err)
	}
	if last.RenderMatches() != renderPipelineMatches(coldAll) {
		t.Error("post-kill stream diverges from the cold run over the full corpus")
	}
}

// failingStore fails the next state-blob write after arm is set, once.
type failingStore struct {
	match.Store
	arm bool
}

func (s *failingStore) SaveBlob(kind, name string, data []byte) error {
	if s.arm && kind == match.KindSnapshot {
		s.arm = false
		return errors.New("injected state write failure")
	}
	return s.Store.SaveBlob(kind, name, data)
}

// TestCommitterSaveStateFailure: a commit whose state write fails
// publishes nothing and leaves the store's state at the previous seq, so
// the batch is rejected like any other — the next batch takes its seq,
// and a restart reopens that batch's state, not the rejected one's.
func TestCommitterSaveStateFailure(t *testing.T) {
	records := testRecords(t, cem.HEPTH)
	batches := batchCuts(records)
	ctx := context.Background()
	state := t.TempDir()
	journal := filepath.Join(state, "journal")
	open := func() *failingStore {
		t.Helper()
		st, err := cem.OpenStore("disk", cem.WithStoreDir(filepath.Join(state, "store")))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return &failingStore{Store: st}
	}

	st := open()
	c, err := NewCommitter(testPipeline(t), WithJournal(journal), WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Apply(ctx, batches[0]); err != nil {
		t.Fatal(err)
	}
	st.arm = true
	if _, err := c.Apply(ctx, batches[1]); err == nil {
		t.Fatal("a batch whose state write failed committed")
	}
	if seq, err := cem.StateSeq(st); c.Snapshot().Seq != 1 || err != nil || seq != 1 {
		t.Fatalf("after the failed save: published seq %d, stored seq %d (%v); want 1 and 1", c.Snapshot().Seq, seq, err)
	}
	next, err := c.Apply(ctx, batches[2])
	if err != nil {
		t.Fatal(err)
	}
	if next.Seq != 2 {
		t.Fatalf("the batch after the failed one committed at seq %d, want 2", next.Seq)
	}

	m := NewMetrics()
	c2, err := NewCommitter(testPipeline(t), WithJournal(journal), WithStore(open()), WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	if n := m.StoreReopens.Value(); c2.Snapshot().Seq != 2 || n != 1 {
		t.Errorf("restart at seq %d with %d store reopens, want seq 2 reopened once", c2.Snapshot().Seq, n)
	}
	cold, err := testPipeline(t).Run(ctx, slices.Concat(batches[0], batches[2]))
	if err != nil {
		t.Fatal(err)
	}
	if c2.Snapshot().RenderMatches() != renderPipelineMatches(cold) {
		t.Error("the reopened state diverges from a cold run over the committed batches")
	}
}

// TestCommitterJournalFailure: a journal write fails while the batch's
// Update, running beside it, succeeds. Apply returns the error and nothing
// is saved or published; the Update has advanced the pipeline's shared
// blocking index all the same, so the next batch rebuilds it from the
// committed records and lands on a cold run's matches, and a restart
// recovers the same state.
func TestCommitterJournalFailure(t *testing.T) {
	records := testRecords(t, cem.HEPTH)
	batches := batchCuts(records)
	ctx := context.Background()
	state := t.TempDir()
	journal := filepath.Join(state, "journal")
	open := func() match.Store {
		t.Helper()
		st, err := cem.OpenStore("disk", cem.WithStoreDir(filepath.Join(state, "store")))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}

	st := open()
	c, err := NewCommitter(testPipeline(t), WithJournal(journal), WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Apply(ctx, batches[0]); err != nil {
		t.Fatal(err)
	}
	// A regular file where the journal directory was: the next journal
	// commit cannot create its entry.
	aside := journal + ".aside"
	if err := os.Rename(journal, aside); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journal, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Apply(ctx, batches[1]); err == nil || !strings.Contains(err.Error(), "journal") {
		t.Fatalf("Apply with an unwritable journal returned %v, want the journal error", err)
	}
	if seq, err := cem.StateSeq(st); c.Snapshot().Seq != 1 || err != nil || seq != 1 {
		t.Fatalf("after the failed journal write: published seq %d, stored seq %d (%v); want 1 and 1", c.Snapshot().Seq, seq, err)
	}
	if err := os.Remove(journal); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(aside, journal); err != nil {
		t.Fatal(err)
	}

	next, err := c.Apply(ctx, batches[2])
	if err != nil {
		t.Fatal(err)
	}
	if next.Seq != 2 {
		t.Fatalf("the batch after the failed one committed at seq %d, want 2", next.Seq)
	}
	cold, err := testPipeline(t).Run(ctx, slices.Concat(batches[0], batches[2]))
	if err != nil {
		t.Fatal(err)
	}
	want := renderPipelineMatches(cold)
	if next.RenderMatches() != want {
		t.Error("the batch after the failed journal write diverges from a cold run over the committed batches")
	}

	c2, err := NewCommitter(testPipeline(t), WithJournal(journal), WithStore(open()))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := c2.Recover(ctx); err != nil || n != 2 {
		t.Fatalf("Recover restored %d batches (%v), want 2", n, err)
	}
	if c2.Snapshot().Seq != 2 || c2.Snapshot().RenderMatches() != want {
		t.Errorf("the restart is at seq %d and diverges from the committed state", c2.Snapshot().Seq)
	}
}

// TestRecoverRefusedStoreSnapshot is the path a state directory written
// before covers dropped subsumed neighborhoods takes: its store snapshot
// fingerprints more neighborhoods than the cover now rebuilt over the
// same records. It may not be trusted, so Recover logs the refused
// reopen, replays the journal through the engine and serves the
// byte-identical match set; the replay rewrites the snapshot, so the next
// restart reopens it again.
func TestRecoverRefusedStoreSnapshot(t *testing.T) {
	records := testRecords(t, cem.HEPTH)
	state := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	restart := func(cfg Config) *Service {
		t.Helper()
		cfg.StateDir, cfg.Batching = state, fastBatching
		svc, err := New(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}

	svc := restart(Config{})
	for _, b := range batchCuts(records) {
		ingestWait(t, svc, b)
	}
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	want := svc.Snapshot()

	// Forge the older build's fingerprint: one neighborhood more.
	path := filepath.Join(state, "store", "blob", "snapshot", "latest")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ck, postings, err := wire.UnmarshalCheckpointPrefix(data)
	if err != nil {
		t.Fatal(err)
	}
	ck.Neighborhoods++
	ck.Visits = append(ck.Visits, 0)
	if data, err = ck.Marshal(wire.Binary); err != nil {
		t.Fatal(err)
	}
	data = append(data, postings...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var logs []string
	svc2 := restart(Config{Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logs = append(logs, fmt.Sprintf(format, args...))
	}})
	srv := httptest.NewServer(svc2)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/matches")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != want.RenderMatches() || resp.Header.Get("X-Emserve-Seq") != fmt.Sprint(want.Seq) {
		t.Errorf("/matches after the refused reopen: seq %s, %d bytes; want seq %d, %d bytes",
			resp.Header.Get("X-Emserve-Seq"), len(body), want.Seq, len(want.RenderMatches()))
	}
	if n := svc2.metrics.StoreReopens.Value(); n != 0 {
		t.Errorf("emserve_store_reopens_total = %d, want 0 (the snapshot disagrees with the cover)", n)
	}
	if calls := svc2.metrics.MatcherCalls.Value(); calls == 0 {
		t.Error("no matcher calls: the journal was not replayed through the engine")
	}
	mu.Lock()
	refused := slices.ContainsFunc(logs, func(l string) bool {
		return strings.Contains(l, "store reopen failed, replaying the journal") && strings.Contains(l, "disagrees with the snapshot")
	})
	mu.Unlock()
	if !refused {
		t.Errorf("Recover did not log the refused reopen; logged %q", logs)
	}
	if err := svc2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	svc3 := restart(Config{})
	defer svc3.Kill()
	if got := svc3.Snapshot(); got.Seq != want.Seq || got.RenderMatches() != want.RenderMatches() {
		t.Errorf("restart after the replay: seq %d, %d matches; want seq %d, %d", got.Seq, got.Matches(), want.Seq, want.Matches())
	}
	if n := svc3.metrics.StoreReopens.Value(); n != 1 {
		t.Errorf("restart after the replay: emserve_store_reopens_total = %d, want 1 (the replay rewrote the snapshot)", n)
	}
}

// TestRecoverStateDirWithSegments covers the state directories earlier
// builds left, each beside its journal:
//   - a store that also holds evidence segments (a per-round mirror of M+):
//     the segments are still verified when the store opens, but recovery
//     reads only the blobs, so the restart reopens the snapshot with zero
//     matcher calls;
//   - a round trail under checkpoint/ and no store: the restart replays the
//     journal into a new store.
//
// Either way the service serves the byte-identical match set, keeps
// warm-starting, and never reads, writes or removes the older files.
func TestRecoverStateDirWithSegments(t *testing.T) {
	records := testRecords(t, cem.HEPTH)
	batches := batchCuts(records)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cold, err := testPipeline(t).Run(ctx, records)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		// leave writes batches[:3] into the state directory as the earlier
		// build did and returns the committed state.
		leave   func(t *testing.T, state string) *Committed
		older   string // glob of the files the earlier build left
		reopens int64
	}{
		{"segments", func(t *testing.T, state string) *Committed {
			return leaveSegments(t, state, batches[:3])
		}, "store/ev-*.seg", 1},
		{"trail-only", func(t *testing.T, state string) *Committed {
			pipe := testPipeline(t, cem.WithCheckpointDir(filepath.Join(state, "checkpoint")))
			c, err := NewCommitter(pipe, WithJournal(filepath.Join(state, "journal")))
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range batches[:3] {
				if _, err := c.Apply(ctx, b); err != nil {
					t.Fatal(err)
				}
			}
			return c.Snapshot()
		}, "checkpoint/round-*.ckpt", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			state := t.TempDir()
			want := tc.leave(t, state)
			left := readFiles(t, state, tc.older)
			if len(left) == 0 {
				t.Fatalf("no %s was left behind", tc.older)
			}

			svc, err := New(context.Background(), Config{StateDir: state, Batching: fastBatching})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Kill()
			if n := svc.metrics.StoreReopens.Value(); n != tc.reopens {
				t.Errorf("emserve_store_reopens_total = %d, want %d", n, tc.reopens)
			}
			if calls := svc.metrics.MatcherCalls.Value(); (calls == 0) != (tc.reopens == 1) {
				t.Errorf("restart made %d matcher calls with %d store reopens", calls, tc.reopens)
			}
			srv := httptest.NewServer(svc)
			defer srv.Close()
			resp, err := http.Get(srv.URL + "/matches")
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if string(body) != want.RenderMatches() {
				t.Errorf("/matches after the restart: %d bytes, want %d", len(body), len(want.RenderMatches()))
			}

			last := ingestWait(t, svc, batches[3])
			if !last.Result.WarmStarted {
				t.Error("the batch after the restart did not warm-start")
			}
			if last.RenderMatches() != renderPipelineMatches(cold) {
				t.Error("the stream continued past the restart diverges from the cold run")
			}
			if got := readFiles(t, state, tc.older); !maps.Equal(got, left) {
				t.Errorf("the service touched the older files %s", tc.older)
			}
		})
	}
}

// TestRecoverTwoBlobStateDir restarts the layout builds before the one-blob
// state left: the store's snapshot blob a bare checkpoint, the blocking
// index in a second blob under store/blob/postings/. The bare checkpoint
// reads as a state blob without a postings section, so the restart reopens
// it — zero matcher calls — with the index rebuilt from the journal's
// records, serves the byte-identical match set and keeps warm-starting; the
// postings blob is never read, written or removed.
func TestRecoverTwoBlobStateDir(t *testing.T) {
	records := testRecords(t, cem.HEPTH)
	batches := batchCuts(records)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	state := t.TempDir()
	svc, err := New(context.Background(), Config{StateDir: state, Batching: fastBatching})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[:3] {
		ingestWait(t, svc, b)
	}
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	want := svc.Snapshot()

	// Split the state blob the way the older build wrote it.
	blobs := filepath.Join(state, "store", "blob")
	data, err := os.ReadFile(filepath.Join(blobs, "snapshot", "latest"))
	if err != nil {
		t.Fatal(err)
	}
	_, postings, err := wire.UnmarshalCheckpointPrefix(data)
	if err != nil || len(postings) == 0 {
		t.Fatalf("the state blob has a %d-byte postings section (%v)", len(postings), err)
	}
	if err := os.WriteFile(filepath.Join(blobs, "snapshot", "latest"), data[:len(data)-len(postings)], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(blobs, "postings"), 0o755); err != nil {
		t.Fatal(err)
	}
	old := append([]byte("CEMP4\n"), postings[len("CEMP5\n"):]...)
	if err := os.WriteFile(filepath.Join(blobs, "postings", "latest"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	left := readFiles(t, state, "store/blob/postings/*")

	svc2, err := New(context.Background(), Config{StateDir: state, Batching: fastBatching})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Kill()
	if n := svc2.metrics.StoreReopens.Value(); n != 1 {
		t.Errorf("emserve_store_reopens_total = %d, want 1", n)
	}
	if calls := svc2.metrics.MatcherCalls.Value(); calls != 0 {
		t.Errorf("the restart made %d matcher calls, want 0", calls)
	}
	if got := svc2.Snapshot(); got.Seq != want.Seq || got.RenderMatches() != want.RenderMatches() {
		t.Errorf("the restart serves seq %d, %d bytes of matches; want seq %d, %d bytes",
			got.Seq, len(got.RenderMatches()), want.Seq, len(want.RenderMatches()))
	}
	last := ingestWait(t, svc2, batches[3])
	if !last.Result.WarmStarted {
		t.Error("the batch after the restart did not warm-start")
	}
	cold, err := testPipeline(t).Run(ctx, slices.Concat(batches[:4]...))
	if err != nil {
		t.Fatal(err)
	}
	if last.RenderMatches() != renderPipelineMatches(cold) {
		t.Error("the stream continued past the restart diverges from the cold run")
	}
	if got := readFiles(t, state, "store/blob/postings/*"); !maps.Equal(got, left) {
		t.Error("the service touched the older postings blob")
	}
}

// leaveSegments serves batches into state, then leaves the committed M+
// behind as evidence segments, in two batches, as an earlier build's
// per-round mirror did.
func leaveSegments(t *testing.T, state string, batches [][]cem.Record) *Committed {
	t.Helper()
	svc, err := New(context.Background(), Config{StateDir: state, Batching: fastBatching})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		ingestWait(t, svc, b)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open("disk", store.WithDir(filepath.Join(state, "store")))
	if err != nil {
		t.Fatal(err)
	}
	keys := rekeyed(svc.Snapshot().Result.Matches.SortedKeys())
	for _, batch := range [][]uint64{keys[:len(keys)/2], keys[len(keys)/2:]} {
		if err := st.PutEvidence(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return svc.Snapshot()
}

// readFiles returns the contents of the files under dir matching glob,
// keyed by path.
func readFiles(t *testing.T, dir, glob string) map[string]string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, glob))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[p] = string(data)
	}
	return out
}

// rekeyed converts pair keys to the store's raw form.
func rekeyed(keys []match.PairKey) []uint64 {
	out := make([]uint64, len(keys))
	for i, k := range keys {
		out[i] = uint64(k)
	}
	return out
}

// TestServiceStoreConfigValidation pins the config failure modes: a
// store without a state directory, and an unknown store name.
func TestServiceStoreConfigValidation(t *testing.T) {
	if _, err := New(context.Background(), Config{Store: "disk"}); err == nil {
		t.Fatal("New accepted a store without a state directory")
	}
	if _, err := New(context.Background(), Config{StateDir: t.TempDir(), Store: "bogus"}); err == nil {
		t.Fatal("New accepted an unknown store name")
	}
}

// TestServiceRefusesUnjournalableKeys: a key the journal cannot hold — a
// line break, through the JSON or the TSV door or Ingest — is refused
// before it is enqueued. Queued, it would share a journal entry with an
// accepted request coalesced beside it, and the journal's refusal would
// lose that batch too.
func TestServiceRefusesUnjournalableKeys(t *testing.T) {
	batches := batchCuts(testRecords(t, cem.HEPTH))
	slow := BatcherConfig{MaxBatch: 1 << 16, MaxDelay: 300 * time.Millisecond, QueueCap: 32}
	svc, err := New(context.Background(), Config{StateDir: t.TempDir(), Batching: slow})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Kill()
	srv := httptest.NewServer(svc)
	defer srv.Close()
	post := func(contentType, body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/records", contentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	var tsv strings.Builder
	if err := cem.WriteRecords(&tsv, "good", batches[0]); err != nil {
		t.Fatal(err)
	}
	if code := post("text/tab-separated-values", tsv.String()); code != http.StatusAccepted {
		t.Fatalf("good batch: status %d, want 202", code)
	}
	if code := post("application/json", `[{"key":"doe\nj"}]`); code != http.StatusBadRequest {
		t.Errorf("JSON key with a line feed: status %d, want 400", code)
	}
	if code := post("text/tab-separated-values", "-1\t-1\tdoe\rj\n"); code != http.StatusBadRequest {
		t.Errorf("TSV key with a carriage return: status %d, want 400", code)
	}
	if _, err := svc.Ingest(context.Background(), []cem.Record{cem.KeyRecord("doe\nj")}); err == nil {
		t.Error("Ingest accepted a key with a line break")
	}
	last := ingestWait(t, svc, batches[1])
	if want := len(batches[0]) + len(batches[1]); last.Records() != want {
		t.Errorf("committed %d records at seq %d, want the %d of both good batches", last.Records(), last.Seq, want)
	}
	if n := svc.metrics.RejectedRecords.Value(); n != 3 {
		t.Errorf("emserve_rejected_records_total = %d, want 3", n)
	}
}

// TestServiceRestartsAfterLongKey: a key whose journal line would be
// longer than a journal read takes back is refused at the door, so every
// acknowledged state restarts.
func TestServiceRestartsAfterLongKey(t *testing.T) {
	batches := batchCuts(testRecords(t, cem.HEPTH))
	state := t.TempDir()
	svc, err := New(context.Background(), Config{StateDir: state, Batching: fastBatching})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc)
	defer srv.Close()
	long := fmt.Sprintf(`[{"key":%q}]`, strings.Repeat("x", 1<<20+10))
	resp, err := http.Post(srv.URL+"/records?wait=1", "application/json", strings.NewReader(long))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("1 MiB key: status %d, want 400", resp.StatusCode)
	}
	ingestWait(t, svc, batches[0])
	want := ingestWait(t, svc, batches[1])
	svc.Kill()

	svc2, err := New(context.Background(), Config{StateDir: state, Batching: fastBatching})
	if err != nil {
		t.Fatalf("restart after an acknowledged state: %v", err)
	}
	defer svc2.Kill()
	if got := svc2.Snapshot(); got.Seq != want.Seq || got.RenderMatches() != want.RenderMatches() {
		t.Errorf("restart serves seq %d, %d matches; want seq %d, %d", got.Seq, got.Matches(), want.Seq, want.Matches())
	}
}
