package cem_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	cem "repro"
	"repro/internal/wire"
	"repro/match"
)

// storeRecords synthesizes a small labeled record stream for the
// store-state tests.
func storeRecords(t testing.TB) []cem.Record {
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
	// Ingest in two batches so the saved state is a streaming one.
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
		t.Fatal("post-reopen update did not warm-start")
	}
}

// parentBlob reads the state blob an older build saved of
// pipe.Update(nil, storeRecords(t)) at sequence 1: the snapshot checkpoint
// followed by that build's blocking-index section (format CEMP6).
func parentBlob(t testing.TB) []byte {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "state-cemp6.blob"))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// splitState splits a state blob into its snapshot checkpoint and the
// bytes after it.
func splitState(t testing.TB, blob []byte) (*wire.Checkpoint, []byte) {
	t.Helper()
	ck, rest, err := wire.UnmarshalCheckpointPrefix(blob)
	if err != nil {
		t.Fatal(err)
	}
	return ck, rest
}

// TestStoreStateReopenOldIndexBlob pins that the blocking-index section an
// older build appended to the state blob is ignored: the blob that build
// saved, the same with the section's magic of the format before it, with a
// section saved under another blocking configuration, and with no section
// at all — the bare snapshot a still older build wrote beside a separate
// postings blob — each reopen, by building the index over the records, to
// the cover and matches of this build's run, with zero matcher calls, and
// keep ingesting incrementally.
func TestStoreStateReopenOldIndexBlob(t *testing.T) {
	ctx := context.Background()
	records := storeRecords(t)
	pipe, err := cem.NewPipeline(cem.WithMatcher(cem.MatcherMLN), cem.WithScheme(cem.SchemeSMP))
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipe.Update(ctx, nil, records)
	if err != nil {
		t.Fatal(err)
	}
	extra, err := cem.GenerateRecords(cem.HEPTH, 0.05, 99)
	if err != nil {
		t.Fatal(err)
	}
	live, err := pipe.Update(ctx, res, extra)
	if err != nil {
		t.Fatal(err)
	}
	blob := parentBlob(t)
	_, section := splitState(t, blob)
	snapshot := blob[:len(blob)-len(section)]
	if !bytes.HasPrefix(section, []byte("CEMP6\n")) {
		t.Fatalf("the older blob's section starts %q, want the CEMP6 magic", section[:min(6, len(section))])
	}
	// The one configuration field a foreign section differs in: MaxAligned,
	// the first uvarint after the two 8-byte thresholds and Q.
	const maxAligned = len("CEMP6\n") + 8 + 8 + 1
	foreign := slices.Clone(section)
	foreign[maxAligned]++

	for name, section := range map[string][]byte{
		"parent":     section,
		"old magic":  append([]byte("CEMP5\n"), section[6:]...),
		"foreign":    foreign,
		"no section": nil,
	} {
		t.Run(name, func(t *testing.T) {
			s, err := cem.OpenStore("mem")
			if err != nil {
				t.Fatal(err)
			}
			if err := s.SaveBlob(match.KindSnapshot, "latest", slices.Concat(snapshot, section)); err != nil {
				t.Fatal(err)
			}
			pipe2, err := cem.NewPipeline(cem.WithMatcher(cem.MatcherMLN), cem.WithScheme(cem.SchemeSMP))
			if err != nil {
				t.Fatal(err)
			}
			reopened, seq, err := pipe2.Reopen(ctx, records, s)
			if err != nil || seq != 1 {
				t.Fatalf("Reopen: seq %d, %v; want seq 1", seq, err)
			}
			if calls := reopened.Stats.MatcherCalls; calls != 0 {
				t.Fatalf("Reopen made %d matcher calls", calls)
			}
			if !reflect.DeepEqual(reopened.Experiment.Cover.Sets, res.Experiment.Cover.Sets) {
				t.Fatal("cover rebuilt from the records differs from the saved run's")
			}
			if got, want := renderMatches(reopened.Result), renderMatches(res.Result); got != want {
				t.Fatalf("reopened matches diverge: %s", firstDiff(got, want))
			}
			after, err := pipe2.Update(ctx, reopened, extra)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := renderMatches(after.Result), renderMatches(live.Result); got != want {
				t.Fatalf("post-reopen update diverges from the live stream: %s", firstDiff(got, want))
			}
			if !after.WarmStarted {
				t.Fatal("post-reopen update did not warm-start: the rebuilt index is not incremental")
			}
		})
	}
}

// countingStore counts the blobs written through it.
type countingStore struct {
	match.Store
	saves int
}

func (s *countingStore) SaveBlob(kind, name string, data []byte) error {
	s.saves++
	return s.Store.SaveBlob(kind, name, data)
}

// TestSaveStateWritesOneBlob: a commit of streaming state is one blob
// write, so one rename commits it.
func TestSaveStateWritesOneBlob(t *testing.T) {
	ctx := context.Background()
	records := storeRecords(t)
	mem, err := cem.OpenStore("mem")
	if err != nil {
		t.Fatal(err)
	}
	s := &countingStore{Store: mem}
	pipe, err := cem.NewPipeline(cem.WithMatcher(cem.MatcherMLN), cem.WithScheme(cem.SchemeSMP))
	if err != nil {
		t.Fatal(err)
	}
	half := len(records) / 2
	res, err := pipe.Update(ctx, nil, records[:half])
	if err != nil {
		t.Fatal(err)
	}
	for seq, batch := range [][]cem.Record{nil, records[half:]} {
		if batch != nil {
			if res, err = pipe.Update(ctx, res, batch); err != nil {
				t.Fatal(err)
			}
		}
		s.saves = 0
		if err := cem.SaveState(s, res, seq+1); err != nil {
			t.Fatal(err)
		}
		if s.saves != 1 {
			t.Fatalf("SaveState at seq %d wrote %d blobs, want 1", seq+1, s.saves)
		}
	}
	reopened, seq, err := pipe.Reopen(ctx, records, mem)
	if err != nil || seq != 2 {
		t.Fatalf("Reopen: seq %d, %v; want seq 2", seq, err)
	}
	if got, want := renderMatches(reopened.Result), renderMatches(res.Result); got != want {
		t.Fatalf("reopened matches diverge: %s", firstDiff(got, want))
	}
}

// TestSaveStateWritesOneCheckpoint: the state blob is exactly one
// wire.Checkpoint, with nothing after it, whether SaveState is handed a Run
// result, an Update result or a result reopened from the store; and a
// Reopen of a Run result's state is as incremental as one of an Update's.
func TestSaveStateWritesOneCheckpoint(t *testing.T) {
	ctx := context.Background()
	records := storeRecords(t)
	pipe, err := cem.NewPipeline(cem.WithMatcher(cem.MatcherMLN), cem.WithScheme(cem.SchemeSMP))
	if err != nil {
		t.Fatal(err)
	}
	s, err := cem.OpenStore("mem")
	if err != nil {
		t.Fatal(err)
	}
	save := func(what string, res *cem.PipelineResult, seq int) {
		t.Helper()
		if err := cem.SaveState(s, res, seq); err != nil {
			t.Fatal(err)
		}
		blob, err := s.OpenBlob(match.KindSnapshot, "latest")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wire.UnmarshalCheckpoint(blob); err != nil {
			t.Errorf("the state blob of %s is not exactly one checkpoint: %v", what, err)
		}
	}
	half := len(records) / 2
	res, err := pipe.Run(ctx, records[:half])
	if err != nil {
		t.Fatal(err)
	}
	save("a Run result", res, 1)
	reopened, _, err := pipe.Reopen(ctx, records[:half], s)
	if err != nil {
		t.Fatal(err)
	}
	after, err := pipe.Update(ctx, reopened, records[half:])
	if err != nil {
		t.Fatal(err)
	}
	if !after.WarmStarted {
		t.Error("an update on the reopened Run state did not warm-start")
	}
	save("an Update result", after, 2)
	if reopened, _, err = pipe.Reopen(ctx, records, s); err != nil {
		t.Fatal(err)
	}
	save("a reopened result", reopened, 3)
}

// TestStoreStateReopenValidation pins Reopen's failure modes: no saved
// snapshot, wrong record stream, wrong matcher — and OpenStore's refusal
// of a name other than "mem" or "disk".
func TestStoreStateReopenValidation(t *testing.T) {
	ctx := context.Background()
	records := storeRecords(t)

	if _, err := cem.OpenStore("bogus"); err == nil {
		t.Fatal("OpenStore accepted an unknown name")
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
	ck, _ := splitState(t, blob)
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

	// The codec refuses to write such a key, so it is forged in the
	// encoded bytes: a one-key delta whose key is a 9-byte varint found
	// nowhere else in the blob, swapped for the negative-id key.
	marker := uint64(1<<30)<<32 | (1<<31 - 1)
	ck.Delta = []uint64{marker}
	forged, err = ck.Marshal(wire.Binary)
	if err != nil {
		t.Fatal(err)
	}
	old := binary.AppendUvarint(nil, marker)
	if n := bytes.Count(forged, old); n != 1 {
		t.Fatalf("the delta key's encoding occurs %d times in the snapshot, want once", n)
	}
	forged = bytes.Replace(forged, old, binary.AppendUvarint(nil, 1<<63|2), 1)
	if err := s.SaveBlob(match.KindSnapshot, "latest", forged); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pipe.Reopen(ctx, records, s); err == nil {
		t.Fatal("Reopen accepted evidence with a negative entity id")
	}
}

// FuzzStateBlob: no state blob — a snapshot checkpoint, an older build's
// blocking-index section after it, or neither — makes StateSeq or Reopen
// panic, and a blob that reopens agrees with StateSeq on its sequence
// number.
func FuzzStateBlob(f *testing.F) {
	ctx := context.Background()
	records := storeRecords(f)
	pipe, err := cem.NewPipeline(cem.WithMatcher(cem.MatcherMLN), cem.WithScheme(cem.SchemeSMP))
	if err != nil {
		f.Fatal(err)
	}
	res, err := pipe.Update(ctx, nil, records)
	if err != nil {
		f.Fatal(err)
	}
	s, err := cem.OpenStore("mem")
	if err != nil {
		f.Fatal(err)
	}
	if err := cem.SaveState(s, res, 3); err != nil {
		f.Fatal(err)
	}
	snapshot, err := s.OpenBlob(match.KindSnapshot, "latest")
	if err != nil {
		f.Fatal(err)
	}
	parent := parentBlob(f)
	_, section := splitState(f, parent)
	f.Add(parent)
	f.Add(snapshot)
	f.Add(parent[:len(parent)-len(section)/2])
	f.Add(slices.Concat(snapshot, []byte("CEMP5\n"), section[6:]))
	f.Add(snapshot[:len(snapshot)/2])
	f.Add([]byte("CEMW"))
	f.Fuzz(func(t *testing.T, blob []byte) {
		s, err := cem.OpenStore("mem")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SaveBlob(match.KindSnapshot, "latest", blob); err != nil {
			t.Fatal(err)
		}
		seq, seqErr := cem.StateSeq(s)
		if _, got, err := pipe.Reopen(ctx, records, s); err == nil && (seqErr != nil || got != seq) {
			t.Fatalf("Reopen at seq %d, StateSeq %d (%v)", got, seq, seqErr)
		}
	})
}
