package serve

import (
	"context"
	"fmt"
	"io"
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

// TestServiceStoreShutdownReopen pins the restart-without-replay
// contract at the service level: a service on a disk store shuts down
// gracefully, and the restart reopens the store snapshot — the matcher
// is not called, not a single neighborhood is evaluated, and the
// committed state is byte-identical. This is strictly stronger than the
// checkpoint-trail restart (TestServiceShutdownRestart), which replays
// the trail even though it skips the matcher.
func TestServiceStoreShutdownReopen(t *testing.T) {
	records := testRecords(t, cem.HEPTH)
	state := t.TempDir()

	svc, err := New(context.Background(), Config{StateDir: state, Store: "disk", Batching: fastBatching})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batchCuts(records) {
		ingestWait(t, svc, b)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	want := svc.Snapshot()

	var evals atomic.Int64
	svc2, err := New(context.Background(), Config{
		StateDir: state, Store: "disk", Batching: fastBatching,
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
	if calls := svc2.pipe.Stats().MatcherCalls; calls != 0 {
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

// TestServiceStoreKillRestart: killed mid-update on a disk store, the
// restart reopens the snapshot of the last COMMITTED batch and folds
// only the interrupted batch through the engine — nothing lost, nothing
// duplicated, final state equal to the uninterrupted run.
func TestServiceStoreKillRestart(t *testing.T) {
	records := testRecords(t, cem.HEPTH)
	state := t.TempDir()
	batches := batchCuts(records)

	ctx, cancel := context.WithCancel(context.Background())
	var armed atomic.Bool
	var once sync.Once
	svc, err := New(ctx, Config{
		StateDir: state, Store: "disk", Batching: fastBatching,
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

	svc2, err := New(context.Background(), Config{StateDir: state, Store: "disk", Batching: fastBatching})
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
	cold, err := testPipeline(t).Run(context.Background(), records[:len(batches[0])+len(batches[1])])
	if err != nil {
		t.Fatal(err)
	}
	if got.RenderMatches() != renderPipelineMatches(cold) {
		t.Error("store kill + restart diverges from the uninterrupted run")
	}
}

// TestRecoverRefusedStoreSnapshot is the path a state directory written
// before covers dropped subsumed neighborhoods takes: its store snapshot
// and its round trail fingerprint more neighborhoods than the cover now
// rebuilt over the same records. Neither may be trusted, so Recover logs
// the refused reopen, replays the journal through the engine and serves
// the byte-identical match set; the replay rewrites the snapshot, so the
// next restart reopens it again.
func TestRecoverRefusedStoreSnapshot(t *testing.T) {
	records := testRecords(t, cem.HEPTH)
	state := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	restart := func(cfg Config) *Service {
		t.Helper()
		cfg.StateDir, cfg.Store, cfg.Batching = state, "disk", fastBatching
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

	// Forge the older build's fingerprint: one neighborhood more, in the
	// snapshot blob and in every record of the round trail.
	forged, err := filepath.Glob(filepath.Join(state, "checkpoint", "round-*.ckpt"))
	if err != nil || len(forged) == 0 {
		t.Fatalf("no round trail to forge (%v)", err)
	}
	for _, path := range append(forged, filepath.Join(state, "store", "blob", "snapshot", "latest")) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ck, err := wire.UnmarshalCheckpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		ck.Neighborhoods++
		ck.Visits = append(ck.Visits, 0)
		if data, err = ck.Marshal(wire.Binary); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
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
	if calls := svc2.pipe.Stats().MatcherCalls; calls == 0 {
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

// TestRecoverStateDirWithSegments is the path a state directory written
// by a build that also mirrored M+ into evidence segments takes: the
// segments are still verified when the store opens, but recovery reads
// only the blobs, so the restart reopens the snapshot with zero matcher
// calls, serves the byte-identical match set, keeps warm-starting, and
// never touches the segments again.
func TestRecoverStateDirWithSegments(t *testing.T) {
	records := testRecords(t, cem.HEPTH)
	batches := batchCuts(records)
	state := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	svc, err := New(context.Background(), Config{StateDir: state, Store: "disk", Batching: fastBatching})
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

	// Leave the committed M+ behind as segments, in two batches, as the
	// earlier build's per-round mirror did.
	st, err := store.Open("disk", store.WithDir(filepath.Join(state, "store")))
	if err != nil {
		t.Fatal(err)
	}
	keys := rekeyed(want.Result.Matches.SortedKeys())
	for _, batch := range [][]uint64{keys[:len(keys)/2], keys[len(keys)/2:]} {
		if err := st.PutEvidence(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segments := func() []string {
		t.Helper()
		files, err := filepath.Glob(filepath.Join(state, "store", "ev-*.seg"))
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	left := segments()
	if len(left) == 0 {
		t.Fatal("no evidence segment was written")
	}

	svc2, err := New(context.Background(), Config{StateDir: state, Store: "disk", Batching: fastBatching})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Kill()
	if n := svc2.metrics.StoreReopens.Value(); n != 1 {
		t.Errorf("emserve_store_reopens_total = %d, want 1", n)
	}
	if calls := svc2.pipe.Stats().MatcherCalls; calls != 0 {
		t.Errorf("restart made %d matcher calls, want 0", calls)
	}
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
	if string(body) != want.RenderMatches() {
		t.Errorf("/matches after the restart: %d bytes, want %d", len(body), len(want.RenderMatches()))
	}

	last := ingestWait(t, svc2, batches[3])
	if !last.Result.WarmStarted {
		t.Error("the batch after the restart did not warm-start")
	}
	cold, err := testPipeline(t).Run(context.Background(), records)
	if err != nil {
		t.Fatal(err)
	}
	if last.RenderMatches() != renderPipelineMatches(cold) {
		t.Error("the stream continued past the restart diverges from the cold run")
	}
	if got := segments(); !slices.Equal(got, left) {
		t.Errorf("the service touched the old segments: %v, was %v", got, left)
	}
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
// store without a state directory, and an unregistered backend name.
func TestServiceStoreConfigValidation(t *testing.T) {
	if _, err := New(context.Background(), Config{Store: "disk"}); err == nil {
		t.Fatal("New accepted a store without a state directory")
	}
	if _, err := New(context.Background(), Config{StateDir: t.TempDir(), Store: "bogus"}); err == nil {
		t.Fatal("New accepted an unregistered store name")
	}
}
