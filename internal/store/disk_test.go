package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/wire"
)

// writeDiskFixture builds a disk store with a few evidence entries and
// returns the directory, the entry paths (ascending), and the expected keys.
func writeDiskFixture(t *testing.T, batches int) (string, []string, []uint64) {
	t.Helper()
	dir := t.TempDir()
	d, err := OpenDisk(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < batches; i++ {
		if err := d.PutEvidence(sortedKeys(rng, 30+i*7)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := Keys(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "evidence-*.delta"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != batches {
		t.Fatalf("fixture wrote %d entries, want %d", len(paths), batches)
	}
	return dir, paths, want
}

// TestDiskTrailingTruncationQuarantine corrupts the TRAILING evidence
// entry at every possible truncation point and at every single byte, and
// asserts the store always reopens with that entry quarantined and every
// earlier entry intact — the same recovery contract the service
// journal gives its trailing batch.
func TestDiskTrailingTruncationQuarantine(t *testing.T) {
	dir, paths, _ := writeDiskFixture(t, 3)
	last := paths[len(paths)-1]
	pristine, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	// Expected survivors: keys of all but the last entry.
	var survivors []uint64
	{
		if err := os.Remove(last); err != nil {
			t.Fatal(err)
		}
		d, err := OpenDisk(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if survivors, err = Keys(d); err != nil {
			t.Fatal(err)
		}
		d.Close()
	}

	reopenAndCheck := func(t *testing.T, mutated []byte) {
		t.Helper()
		if err := os.WriteFile(last, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		var logged []string
		d, err := OpenDisk(Options{Dir: dir, Logf: func(f string, a ...any) {
			logged = append(logged, f)
		}})
		if err != nil {
			t.Fatalf("reopen with damaged trailing entry failed: %v", err)
		}
		got, err := Keys(d)
		if err != nil {
			t.Fatal(err)
		}
		d.Close()
		if !reflect.DeepEqual(got, survivors) {
			t.Fatalf("damaged trailing entry: got %d keys, want %d survivors", len(got), len(survivors))
		}
		if len(logged) == 0 {
			t.Fatal("quarantine was not logged")
		}
		q, err := filepath.Glob(filepath.Join(dir, "*.corrupt"))
		if err != nil || len(q) != 1 {
			t.Fatalf("quarantine glob = %v, %v; want exactly one", q, err)
		}
		if err := os.Remove(q[0]); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("every-truncation", func(t *testing.T) {
		for n := 0; n < len(pristine); n++ {
			reopenAndCheck(t, pristine[:n])
			if t.Failed() {
				t.Fatalf("first failing truncation length: %d of %d", n, len(pristine))
			}
		}
	})
	t.Run("every-byte-flip", func(t *testing.T) {
		for i := range pristine {
			mutated := append([]byte(nil), pristine...)
			mutated[i] ^= 0xff
			if err := os.WriteFile(last, mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			d, err := OpenDisk(Options{Dir: dir})
			if err != nil {
				t.Fatalf("byte %d: reopen failed hard: %v", i, err)
			}
			got, gerr := Keys(d)
			d.Close()
			if gerr != nil {
				t.Fatalf("byte %d: Keys: %v", i, gerr)
			}
			// A flip either leaves a still-valid entry (then the full
			// set must round-trip) or the entry is quarantined and
			// survivors remain. Either way earlier entries are intact.
			for _, k := range survivors {
				found := false
				for _, g := range got {
					if g == k {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("byte %d: survivor key %#x lost", i, k)
				}
			}
			if q, _ := filepath.Glob(filepath.Join(dir, "*.corrupt")); len(q) > 0 {
				for _, p := range q {
					os.Remove(p)
				}
			} else if !reflect.DeepEqual(got, survivorsPlus(survivors, pristine, t)) {
				t.Fatalf("byte %d: flip went undetected but keys changed", i)
			}
		}
	})
}

// survivorsPlus returns survivors ∪ the pristine entry's keys — what a
// reopen must see when the trailing entry is intact.
func survivorsPlus(survivors []uint64, pristine []byte, t *testing.T) []uint64 {
	t.Helper()
	delta, err := wire.UnmarshalDelta(pristine)
	if err != nil {
		t.Fatalf("pristine entry does not decode: %v", err)
	}
	set := map[uint64]struct{}{}
	for _, k := range survivors {
		set[k] = struct{}{}
	}
	for _, k := range delta.Keys {
		set[k] = struct{}{}
	}
	out := make([]uint64, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sortU64(out)
	return out
}

func sortU64(s []uint64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j-1] > s[j]; j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
}

// TestDiskNonTrailingDamageIsFatal pins that damage to any evidence entry
// OTHER than the trailing one refuses to open: quarantining it would
// silently drop evidence that later entries build on.
func TestDiskNonTrailingDamageIsFatal(t *testing.T) {
	dir, paths, _ := writeDiskFixture(t, 3)
	first := paths[0]
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(first, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(Options{Dir: dir}); err == nil {
		t.Fatal("store opened despite a damaged non-trailing entry")
	} else if !strings.Contains(err.Error(), "not the trailing entry") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestDiskOrphanTmpRemoved pins that a crash between tmp-write and
// rename (an orphaned *.tmp) is cleaned up at open and never treated as
// state.
func TestDiskOrphanTmpRemoved(t *testing.T) {
	dir, _, want := writeDiskFixture(t, 2)
	orphan := filepath.Join(dir, fmt.Sprintf(evidenceFormat, 99)+".tmp")
	if err := os.WriteFile(orphan, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDisk(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	got, err := Keys(d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("orphan tmp changed the evidence set")
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan tmp not removed: %v", err)
	}
}

// TestDiskBlobAtomicReplace pins blob replacement goes through a temp
// file (no *.tmp left behind, content fully replaced).
func TestDiskBlobAtomicReplace(t *testing.T) {
	d, err := OpenDisk(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	big := make([]byte, 1<<16)
	for i := range big {
		big[i] = byte(i)
	}
	if err := d.SaveBlob(KindSnapshot, "latest", big); err != nil {
		t.Fatal(err)
	}
	if err := d.SaveBlob(KindSnapshot, "latest", []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	got, err := d.OpenBlob(KindSnapshot, "latest")
	if err != nil || string(got) != "tiny" {
		t.Fatalf("OpenBlob = %d bytes, %v", len(got), err)
	}
	tmps, _ := filepath.Glob(filepath.Join(d.Dir(), "blob", KindSnapshot, "*.tmp"))
	if len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
	if names, err := d.ListBlobs(KindSnapshot); err != nil || len(names) != 1 {
		t.Fatalf("ListBlobs = %v, %v", names, err)
	}
}

// TestDiskClosedRejectsWrites pins that a closed store refuses new
// evidence.
func TestDiskClosedRejectsWrites(t *testing.T) {
	d, err := OpenDisk(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.PutEvidence([]uint64{pk(1, 2)}); err == nil {
		t.Fatal("PutEvidence succeeded on a closed store")
	}
}

// TestDiskIgnoresOlderSegments pins that the ev-*.seg files an older
// build left beside the evidence entries are not the store's: a damaged
// first one does not stop the store from opening, none of their bytes
// reach the evidence set, and a put and a compaction leave them
// byte-identical.
func TestDiskIgnoresOlderSegments(t *testing.T) {
	dir := t.TempDir()
	older := map[string][]byte{
		"ev-00000000.seg": []byte("CEMS\x01 torn before its first block"),
		"ev-00000001.seg": []byte("any bytes an older build wrote"),
	}
	for name, data := range older {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(5))
	want := map[uint64]struct{}{}
	put := func(d *Disk, batches int) {
		t.Helper()
		for i := 0; i < batches; i++ {
			keys := sortedKeys(rng, 25)
			for _, k := range keys {
				want[k] = struct{}{}
			}
			if err := d.PutEvidence(keys); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(d *Disk, when string) {
		t.Helper()
		got, err := Keys(d)
		if err != nil {
			t.Fatal(err)
		}
		wantSorted := make([]uint64, 0, len(want))
		for k := range want {
			wantSorted = append(wantSorted, k)
		}
		sortU64(wantSorted)
		if !reflect.DeepEqual(got, wantSorted) {
			t.Fatalf("%s: Keys returned %d keys, want the %d put", when, len(got), len(wantSorted))
		}
		for name, data := range older {
			if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("%s: %s changed: %q, %v", when, name, got, err)
			}
		}
	}

	d, err := OpenDisk(Options{Dir: dir})
	if err != nil {
		t.Fatalf("opening beside older segments: %v", err)
	}
	put(d, 2)
	d.Close()
	if d, err = OpenDisk(Options{Dir: dir}); err != nil {
		t.Fatalf("reopening beside older segments and evidence entries: %v", err)
	}
	check(d, "after a put")
	put(d, compactEvery-1)
	if n, _ := filepath.Glob(filepath.Join(dir, "evidence-*.delta")); len(n) != 1 {
		t.Fatalf("%d evidence entries after %d puts, want one compacted entry", len(n), compactEvery+1)
	}
	check(d, "after a compaction")
	d.Close()
	if d, err = OpenDisk(Options{Dir: dir}); err != nil {
		t.Fatalf("reopening after the compaction: %v", err)
	}
	defer d.Close()
	check(d, "after a reopen")
}

// TestDiskConcurrentReaders: readers that range, count and look up the
// evidence while one writer puts (and compacts) always see an ascending,
// distinct set that never shrinks.
func TestDiskConcurrentReaders(t *testing.T) {
	d, err := OpenDisk(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	batches := make([][]uint64, 2*compactEvery)
	rng := rand.New(rand.NewSource(17))
	for i := range batches {
		batches[i] = sortedKeys(rng, 30)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				got, err := Keys(d)
				if err != nil {
					t.Error(err)
					return
				}
				if len(got) < seen {
					t.Errorf("the set shrank from %d to %d keys", seen, len(got))
					return
				}
				seen = len(got)
				for i := 1; i < len(got); i++ {
					if got[i-1] >= got[i] {
						t.Errorf("keys not ascending and distinct at %d", i)
						return
					}
				}
				if len(got) > 0 {
					if ok, err := d.HasEvidence(got[len(got)/2]); err != nil || !ok {
						t.Errorf("HasEvidence of a ranged key = %v, %v", ok, err)
						return
					}
				}
			}
		}()
	}
	for _, b := range batches {
		if err := d.PutEvidence(b); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
}
