package cem_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	cem "repro"
	"repro/internal/wire"
	"repro/match"
)

// storeRecords synthesizes a small labeled record stream for the
// store-state tests.
func storeRecords(t *testing.T) []cem.Record {
	t.Helper()
	records, err := cem.GenerateRecords(cem.HEPTH, 0.15, 7)
	if err != nil {
		t.Fatal(err)
	}
	return records
}

// TestStoreStateReopen pins the restart-without-replay contract: a
// pipeline run on a disk store, saved with SaveState, reopens from the
// store byte-identical — same matches, same metrics — with ZERO matcher
// calls, and the reopened result continues incrementally like the
// original would have.
func TestStoreStateReopen(t *testing.T) {
	ctx := context.Background()
	records := storeRecords(t)
	dir := filepath.Join(t.TempDir(), "store")

	s, err := cem.OpenStore("disk", cem.WithStoreDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := cem.NewPipeline(cem.WithMatcher(cem.MatcherMLN), cem.WithScheme(cem.SchemeSMP))
	if err != nil {
		t.Fatal(err)
	}
	// Ingest in two batches so the saved state carries streaming
	// blocking state (the postings blob).
	half := len(records) / 2
	first, err := pipe.Update(ctx, nil, records[:half])
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipe.Update(ctx, first, records[half:])
	if err != nil {
		t.Fatal(err)
	}
	const seq = 5
	if err := cem.SaveState(s, res, seq); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A new process: new store handle, new pipeline, same records.
	s2, err := cem.OpenStore("disk", cem.WithStoreDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	pipe2, err := cem.NewPipeline(cem.WithMatcher(cem.MatcherMLN), cem.WithScheme(cem.SchemeSMP))
	if err != nil {
		t.Fatal(err)
	}
	reopened, gotSeq, err := pipe2.Reopen(ctx, records, s2)
	if err != nil {
		t.Fatal(err)
	}
	if gotSeq != seq {
		t.Fatalf("Reopen sequence = %d, want %d", gotSeq, seq)
	}
	if got, want := renderMatches(reopened.Result), renderMatches(res.Result); got != want {
		t.Fatalf("reopened matches diverge: %s", firstDiff(got, want))
	}
	if reopened.Stats.MatcherCalls != 0 || reopened.Stats.Evaluations != 0 {
		t.Fatalf("Reopen invoked the matcher: %d calls, %d evaluations",
			reopened.Stats.MatcherCalls, reopened.Stats.Evaluations)
	}
	if pipe2.Stats().MatcherCalls != 0 {
		t.Fatalf("pipeline counters recorded %d matcher calls during Reopen", pipe2.Stats().MatcherCalls)
	}
	if res.Labeled {
		if reopened.Report == nil || reopened.Report.PRF != res.Report.PRF {
			t.Fatalf("reopened metrics diverge: %+v vs %+v", reopened.Report, res.Report)
		}
	}

	// The reopened state ingests incrementally and agrees with the
	// never-killed stream.
	extra, err := cem.GenerateRecords(cem.HEPTH, 0.05, 99)
	if err != nil {
		t.Fatal(err)
	}
	afterReopen, err := pipe2.Update(ctx, reopened, extra)
	if err != nil {
		t.Fatal(err)
	}
	// The live continuation never saw a restart; only the outputs are
	// compared.
	livePipe, err := cem.NewPipeline(cem.WithMatcher(cem.MatcherMLN), cem.WithScheme(cem.SchemeSMP))
	if err != nil {
		t.Fatal(err)
	}
	afterLive, err := livePipe.Update(ctx, res, extra)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderMatches(afterReopen.Result), renderMatches(afterLive.Result); got != want {
		t.Fatalf("post-reopen update diverges from the live stream: %s", firstDiff(got, want))
	}
	if !afterReopen.WarmStarted {
		t.Fatal("post-reopen update did not warm-start (postings blob not honored?)")
	}
}

// TestStoreStateReopenOldIndexBlob pins that the index blob is a cache:
// a store whose postings blob carries the previous format's magic (as
// every store written before covers dropped subsumed neighborhoods does)
// still reopens,
// by replaying the records through a fresh index, to the byte-identical
// cover, and keeps ingesting incrementally.
func TestStoreStateReopenOldIndexBlob(t *testing.T) {
	ctx := context.Background()
	records := storeRecords(t)
	s, err := cem.OpenStore("mem")
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := cem.NewPipeline(cem.WithMatcher(cem.MatcherMLN), cem.WithScheme(cem.SchemeSMP))
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipe.Update(ctx, nil, records)
	if err != nil {
		t.Fatal(err)
	}
	if err := cem.SaveState(s, res, 1); err != nil {
		t.Fatal(err)
	}
	blob, err := s.OpenBlob(match.KindPostings, "latest")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(blob, []byte("CEMP4\n")) {
		t.Fatalf("index blob starts %q, want the CEMP4 magic", blob[:6])
	}
	old := append([]byte("CEMP3\n"), blob[6:]...)
	if err := s.SaveBlob(match.KindPostings, "latest", old); err != nil {
		t.Fatal(err)
	}

	reopened, _, err := pipe.Reopen(ctx, records, s)
	if err != nil {
		t.Fatalf("Reopen over an old-magic index blob: %v", err)
	}
	if !reflect.DeepEqual(reopened.Experiment.Cover.Sets, res.Experiment.Cover.Sets) {
		t.Fatal("cover rebuilt by replay differs from the saved run's")
	}
	if got, want := renderMatches(reopened.Result), renderMatches(res.Result); got != want {
		t.Fatalf("reopened matches diverge: %s", firstDiff(got, want))
	}
	extra, err := cem.GenerateRecords(cem.HEPTH, 0.05, 99)
	if err != nil {
		t.Fatal(err)
	}
	after, err := pipe.Update(ctx, reopened, extra)
	if err != nil {
		t.Fatal(err)
	}
	live, err := pipe.Update(ctx, res, extra)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderMatches(after.Result), renderMatches(live.Result); got != want {
		t.Fatalf("post-reopen update diverges from the live stream: %s", firstDiff(got, want))
	}
	if !after.WarmStarted {
		t.Fatal("post-reopen update did not warm-start: the replayed index is not incremental")
	}
}

// TestStoreStateReopenValidation pins Reopen's failure modes: no saved
// snapshot, wrong record stream, wrong matcher — and OpenStore's refusal
// of an unregistered backend.
func TestStoreStateReopenValidation(t *testing.T) {
	ctx := context.Background()
	records := storeRecords(t)

	if _, err := cem.OpenStore("bogus"); err == nil {
		t.Fatal("OpenStore accepted an unregistered name")
	}
	empty, err := cem.OpenStore("mem")
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := cem.NewPipeline(cem.WithMatcher(cem.MatcherMLN), cem.WithScheme(cem.SchemeSMP))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pipe.Reopen(ctx, records, empty); !errors.Is(err, match.ErrBlobNotFound) {
		t.Fatalf("Reopen on an empty store: err = %v, want ErrBlobNotFound", err)
	}

	s, err := cem.OpenStore("mem")
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipe.Update(ctx, nil, records)
	if err != nil {
		t.Fatal(err)
	}
	if err := cem.SaveState(s, res, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pipe.Reopen(ctx, records[:len(records)-3], s); err == nil {
		t.Fatal("Reopen accepted a shorter record stream than the snapshot spans")
	}
	rulesPipe, err := cem.NewPipeline(cem.WithMatcher(cem.MatcherRules), cem.WithScheme(cem.SchemeSMP))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rulesPipe.Reopen(ctx, records, s); err == nil {
		t.Fatal("Reopen accepted a snapshot saved by a different matcher")
	}

	// A snapshot whose evidence holds a key that unpacks to a negative
	// entity id — (-2147483648, 2) passes "A < B" and "B < n" — is
	// refused: nothing downstream may ever see such a pair.
	blob, err := s.OpenBlob(match.KindSnapshot, "latest")
	if err != nil {
		t.Fatal(err)
	}
	ck, err := wire.UnmarshalCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	// So is a maximal message naming entities past the saved stream: it
	// is refused here, not when a later Update seeds a run with it.
	n := uint64(len(records))
	ck.Messages = [][]uint64{{n<<32 | (n + 1), n<<32 | (n + 2)}}
	forged, err := ck.Marshal(wire.Binary)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveBlob(match.KindSnapshot, "latest", forged); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pipe.Reopen(ctx, records, s); err == nil {
		t.Fatal("Reopen accepted a maximal message over entities the snapshot does not span")
	}
	ck.Messages = nil

	ck.Delta = nil
	forged, err = ck.Marshal(wire.JSON)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(forged, []byte(`"delta":null`)) {
		t.Fatalf("snapshot JSON changed shape: %s", forged)
	}
	forged = bytes.Replace(forged, []byte(`"delta":null`), []byte(fmt.Sprintf(`"delta":[%d]`, uint64(1<<63|2))), 1)
	if err := s.SaveBlob(match.KindSnapshot, "latest", forged); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pipe.Reopen(ctx, records, s); err == nil {
		t.Fatal("Reopen accepted evidence with a negative entity id")
	}
}
