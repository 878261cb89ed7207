package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	cem "repro"
	"repro/match"
)

// BenchmarkIngest is the serve-ingest benchmark workload's writer without
// its reader: the DBLP-like 0.5 corpus of seed 42 POSTed in 32-record JSON
// batches to /records?wait=1 of an in-process service on a fresh disk-store
// state directory per iteration, each POST answered once its batch is
// journaled and published. Everything a POST pays is timed — HTTP, journal,
// Update and the published snapshot — and reported per POST, beside
// state_bytes/post: the size of the state blob each commit leaves in the
// store, read outside the timer once that commit's checkpoint has landed
// (so the checkpoint a POST leaves running does not overlap the next one).
func BenchmarkIngest(b *testing.B) {
	const batch = 32
	records, err := cem.GenerateRecords(cem.DBLP, 0.5, 42)
	if err != nil {
		b.Fatal(err)
	}
	type rec struct {
		Key   string `json:"key"`
		Group int32  `json:"group"`
		Gold  int32  `json:"gold"`
	}
	var bodies [][]byte
	for lo := 0; lo < len(records); lo += batch {
		var recs []rec
		for _, r := range records[lo:min(lo+batch, len(records))] {
			br := r.(cem.BasicRecord)
			recs = append(recs, rec{br.Key, br.Group, br.Gold})
		}
		body, err := json.Marshal(recs)
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	stateBytes := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		svc, err := New(context.Background(), Config{
			StateDir: b.TempDir(), Store: "disk",
			Batching: BatcherConfig{MaxBatch: batch, MaxDelay: time.Millisecond},
		})
		if err != nil {
			b.Fatal(err)
		}
		srv := httptest.NewServer(svc)
		b.StartTimer()
		for seq, body := range bodies {
			resp, err := srv.Client().Post(srv.URL+"/records?wait=1", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			var ack ingestResponse
			err = json.NewDecoder(resp.Body).Decode(&ack)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || ack.Seq != seq+1 {
				b.Fatalf("POST %d: status %d, ack %+v, %v", seq, resp.StatusCode, ack, err)
			}
			b.StopTimer()
			// The ack does not wait for the state blob: wait for it here,
			// outside the timer, so each POST's blob is the one read.
			if err := svc.committer.Flush(); err != nil {
				b.Fatal(err)
			}
			blob, err := svc.store.OpenBlob(match.KindSnapshot, "latest")
			if err != nil {
				b.Fatal(err)
			}
			stateBytes += len(blob)
			b.StartTimer()
		}
		b.StopTimer()
		srv.Close()
		svc.Kill()
		b.StartTimer()
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N*len(bodies)), "ms/post")
	b.ReportMetric(float64(stateBytes)/float64(b.N*len(bodies)), "state_bytes/post")
}
