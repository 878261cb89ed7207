package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	cem "repro"
)

// fastBatching keeps test latency low: tiny flush delay, small batches.
var fastBatching = BatcherConfig{MaxBatch: 512, MaxDelay: 5 * time.Millisecond, QueueCap: 32}

// ingestWait pushes records through the service's programmatic ingest
// path and blocks for the commit.
func ingestWait(t *testing.T, s *Service, records []cem.Record) *Committed {
	t.Helper()
	done, err := s.Ingest(context.Background(), records)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-done:
		if res.Err != nil {
			t.Fatalf("ingest failed: %v", res.Err)
		}
		return res.State
	case <-time.After(2 * time.Minute):
		t.Fatal("ingest never committed")
		return nil
	}
}

// TestServiceHTTPEndToEnd drives the full HTTP surface: TSV and JSON
// ingestion (wait and fire-and-forget), snapshot reads, the canonical
// match dump, stats, Prometheus metrics, and the error paths.
func TestServiceHTTPEndToEnd(t *testing.T) {
	records := testRecords(t, cem.HEPTH)
	svc, err := New(context.Background(), Config{Batching: fastBatching})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Kill()
	srv := httptest.NewServer(svc)
	defer srv.Close()

	// TSV ingest with ?wait=1 commits synchronously.
	var body bytes.Buffer
	if err := cem.WriteRecords(&body, "batch-1", records[:len(records)*9/10]); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/records?wait=1", "text/tab-separated-values", &body)
	if err != nil {
		t.Fatal(err)
	}
	var ack ingestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ack.Queued || ack.Seq != 1 {
		t.Fatalf("waited TSV ingest: status %d, ack %+v", resp.StatusCode, ack)
	}
	if ack.Matches == 0 {
		t.Fatal("first batch committed zero matches; the read tests are vacuous")
	}

	// JSON ingest (fire-and-forget) is accepted with a 202 and commits
	// within the latency bound.
	var jr []ingestRecord
	for _, r := range records[len(records)*9/10:] {
		rec := r.(cem.BasicRecord)
		jr = append(jr, ingestRecord{Key: rec.Key, Group: &rec.Group, Gold: &rec.Gold})
	}
	jb, _ := json.Marshal(jr)
	resp, err = http.Post(srv.URL+"/records", "application/json", bytes.NewReader(jb))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async JSON ingest: status %d, want 202", resp.StatusCode)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for svc.Snapshot().Seq < 2 {
		if time.Now().After(deadline) {
			t.Fatal("async batch never committed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	snap := svc.Snapshot()
	if snap.Records() != len(records) {
		t.Fatalf("committed %d records, want %d", snap.Records(), len(records))
	}

	// Snapshot reads resolve every ingested key; an unknown key is 404.
	key := records[0].RecordKey()
	resp, err = http.Get(srv.URL + "/records/" + url.PathEscape(key))
	if err != nil {
		t.Fatal(err)
	}
	var rv RecordView
	if err := json.NewDecoder(resp.Body).Decode(&rv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rv.Key != key || len(rv.Entities) == 0 {
		t.Fatalf("GET /records/%q: status %d, view %+v", key, resp.StatusCode, rv)
	}
	resp, _ = http.Get(srv.URL + "/cluster/" + url.PathEscape(key))
	var cv ClusterView
	if err := json.NewDecoder(resp.Body).Decode(&cv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(cv.Clusters) == 0 || len(cv.Clusters[0]) == 0 {
		t.Fatalf("GET /cluster/%q returned no clusters", key)
	}
	resp, _ = http.Get(srv.URL + "/records/no-such-key")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown key: status %d, want 404", resp.StatusCode)
	}

	// The match dump is the canonical fixture form at the committed seq.
	resp, _ = http.Get(srv.URL + "/matches")
	dump, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got, want := string(dump), snap.RenderMatches(); got != want {
		t.Errorf("/matches diverges from the snapshot dump (%d vs %d bytes)", len(got), len(want))
	}
	if seq := resp.Header.Get("X-Emserve-Seq"); seq != fmt.Sprint(snap.Seq) {
		t.Errorf("/matches seq header %q, want %d", seq, snap.Seq)
	}

	// /stats reports the committed state and its last update, stage
	// times to the nanosecond; /metrics counts the updates and speaks
	// Prometheus.
	resp, _ = http.Get(srv.URL + "/stats")
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Seq != snap.Seq || st.Records != len(records) || st.LastWarm != snap.Result.WarmStarted {
		t.Errorf("/stats = %+v, want seq %d over %d records", st, snap.Seq, len(records))
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	if st.LastBlockingMS != ms(snap.Result.BlockingTime) || st.LastMatchingMS != ms(snap.Result.MatchingTime) {
		t.Errorf("/stats last update took %v ms blocking, %v ms matching; the snapshot says %v, %v",
			st.LastBlockingMS, st.LastMatchingMS, snap.Result.BlockingTime, snap.Result.MatchingTime)
	}
	resp, _ = http.Get(srv.URL + "/metrics")
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"# TYPE emserve_ingested_records_total counter",
		"emserve_committed_batches_total 2",
		`emserve_updates_total{mode="warm"} 1`,
		"# TYPE emserve_update_seconds histogram",
		"emserve_round_seconds_bucket",
		fmt.Sprintf("emserve_committed_seq %d", snap.Seq),
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Error paths: empty batches and empty keys are rejected up front.
	resp, _ = http.Post(srv.URL+"/records", "application/json", strings.NewReader(`[]`))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", resp.StatusCode)
	}
	resp, _ = http.Post(srv.URL+"/records", "application/json", strings.NewReader(`[{"key":""}]`))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty key: status %d, want 400", resp.StatusCode)
	}
}

// TestServiceConcurrentReaders is the snapshot-isolation race test: m
// readers hammer the read endpoints while batches commit. Every reader
// must only ever observe fully-committed states — seq strictly
// monotone per reader, and each observed match dump internally
// consistent (header count == pair lines). Run under -race this also
// proves the read path takes no locks the writer tears.
func TestServiceConcurrentReaders(t *testing.T) {
	records := testRecords(t, cem.HEPTH)
	svc, err := New(context.Background(), Config{Batching: fastBatching})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Kill()
	srv := httptest.NewServer(svc)
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	report := func(format string, args ...any) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}

	// Direct snapshot readers: seq monotone, views structurally sound.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastSeq := -1
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := svc.Snapshot()
				if snap.Seq < lastSeq {
					report("snapshot seq went backwards: %d after %d", snap.Seq, lastSeq)
					return
				}
				lastSeq = snap.Seq
				dump := snap.RenderMatches()
				if n := strings.Count(dump, "\n"); n != snap.Matches()+1 {
					report("torn snapshot at seq %d: %d lines for %d matches", snap.Seq, n, snap.Matches())
					return
				}
				if snap.Records() > 0 {
					key := records[snap.Records()-1].RecordKey()
					if _, ok := snap.Lookup(key); !ok {
						report("seq %d snapshot is missing its own last record %q", snap.Seq, key)
						return
					}
				}
			}
		}()
	}
	// HTTP readers: /matches responses are internally consistent.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL + "/matches")
				if err != nil {
					report("GET /matches: %v", err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				var n int
				if _, err := fmt.Sscanf(string(body), "# %d matches", &n); err != nil {
					report("unparseable /matches header: %v", err)
					return
				}
				if lines := strings.Count(string(body), "\n"); lines != n+1 {
					report("torn /matches: %d lines for %d matches", lines, n)
					return
				}
			}
		}()
	}

	// The writer: stream the corpus in 8 batches while the readers run.
	step := (len(records) + 7) / 8
	for lo := 0; lo < len(records); lo += step {
		hi := min(lo+step, len(records))
		ingestWait(t, svc, records[lo:hi])
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if svc.Snapshot().Records() != len(records) {
		t.Fatalf("committed %d records, want %d", svc.Snapshot().Records(), len(records))
	}
}

// TestServiceShutdownRestart runs shutdownReopen on a state directory
// that names no store backend, which opens the disk store.
func TestServiceShutdownRestart(t *testing.T) { shutdownReopen(t, "") }

// TestServiceKillRestart runs killRestart on a state directory that
// names no store backend, which opens the disk store.
func TestServiceKillRestart(t *testing.T) { killRestart(t, "") }
