package store

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// pk packs a pair key the way the engine does.
func pk(a, b uint32) uint64 { return uint64(a)<<32 | uint64(b) }

// sortedKeys returns n distinct valid pair keys, strictly increasing.
func sortedKeys(rng *rand.Rand, n int) []uint64 {
	set := map[uint64]struct{}{}
	for len(set) < n {
		a := rng.Uint32() % 50_000
		b := a + 1 + rng.Uint32()%50_000
		set[pk(a, b)] = struct{}{}
	}
	keys := make([]uint64, 0, n)
	for k := range set {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// storeNames are the stores Open builds.
var storeNames = []string{"mem", "disk"}

// openEach builds one instance of every built-in store for a test.
func openEach(t *testing.T) map[string]Store {
	t.Helper()
	stores := map[string]Store{}
	for _, name := range storeNames {
		s, err := Open(name, WithDir(filepath.Join(t.TempDir(), name)))
		if err != nil {
			t.Fatalf("Open(%q): %v", name, err)
		}
		t.Cleanup(func() { s.Close() })
		stores[name] = s
	}
	return stores
}

// TestRegistryHasBothBackends: Open builds exactly the two built-ins, each
// under its own name, and refuses every other name.
func TestRegistryHasBothBackends(t *testing.T) {
	for name, s := range openEach(t) {
		if s.Name() != name {
			t.Errorf("Open(%q) built a store named %q", name, s.Name())
		}
	}
	for _, name := range []string{"", "no-such-store", "Disk", "sharded"} {
		if _, err := Open(name, WithDir(t.TempDir())); err == nil {
			t.Errorf("Open(%q) succeeded", name)
		}
	}
}

// TestStoreConformance runs the same API contract against every
// built-in store.
func TestStoreConformance(t *testing.T) {
	for name, s := range openEach(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			want := map[uint64]struct{}{}
			// Several overlapping batches.
			for batch := 0; batch < 6; batch++ {
				keys := sortedKeys(rng, 200+batch*37)
				for _, k := range keys {
					want[k] = struct{}{}
				}
				if err := s.PutEvidence(keys); err != nil {
					t.Fatalf("PutEvidence: %v", err)
				}
			}
			wantSorted := make([]uint64, 0, len(want))
			for k := range want {
				wantSorted = append(wantSorted, k)
			}
			sort.Slice(wantSorted, func(i, j int) bool { return wantSorted[i] < wantSorted[j] })

			if n, err := s.EvidenceLen(); err != nil || n != len(want) {
				t.Fatalf("EvidenceLen = %d, %v; want %d", n, err, len(want))
			}
			got, err := Keys(s)
			if err != nil {
				t.Fatalf("Keys: %v", err)
			}
			if !reflect.DeepEqual(got, wantSorted) {
				t.Fatalf("Keys returned %d keys, want %d (or order/dedup mismatch)", len(got), len(wantSorted))
			}
			// Point lookups, hits and misses.
			for _, k := range wantSorted[:50] {
				if ok, err := s.HasEvidence(k); err != nil || !ok {
					t.Fatalf("HasEvidence(%#x) = %v, %v; want true", k, ok, err)
				}
			}
			for probe := uint64(0); probe < 50; probe++ {
				k := pk(uint32(100_000+probe), uint32(200_000+probe))
				if ok, err := s.HasEvidence(k); err != nil || ok {
					t.Fatalf("HasEvidence(absent %#x) = %v, %v; want false", k, ok, err)
				}
			}
			// Sub-range iteration with early stop.
			lo, hi := wantSorted[len(wantSorted)/4], wantSorted[len(wantSorted)/2]
			var sub []uint64
			if err := s.EvidenceRange(lo, hi, func(k uint64) bool {
				sub = append(sub, k)
				return len(sub) < 10
			}); err != nil {
				t.Fatalf("EvidenceRange: %v", err)
			}
			if len(sub) != 10 {
				t.Fatalf("early-stopped range yielded %d keys, want 10", len(sub))
			}
			for i, k := range sub {
				if k < lo || k >= hi {
					t.Fatalf("range key %#x outside [%#x, %#x)", k, lo, hi)
				}
				if i > 0 && sub[i-1] >= k {
					t.Fatalf("range not strictly increasing at %d", i)
				}
			}

			// Invalid batches are rejected.
			if err := s.PutEvidence([]uint64{pk(5, 5)}); err == nil {
				t.Fatal("PutEvidence accepted a==b")
			}
			if err := s.PutEvidence([]uint64{pk(1, 2), pk(1, 2)}); err == nil {
				t.Fatal("PutEvidence accepted a duplicate in one batch")
			}
			if err := s.PutEvidence([]uint64{pk(3, 4), pk(1, 2)}); err == nil {
				t.Fatal("PutEvidence accepted a descending batch")
			}

			// Blobs.
			if err := s.SaveBlob(KindSnapshot, "latest", []byte("v1")); err != nil {
				t.Fatalf("SaveBlob: %v", err)
			}
			if err := s.SaveBlob(KindSnapshot, "latest", []byte("v2")); err != nil {
				t.Fatalf("SaveBlob replace: %v", err)
			}
			if err := s.SaveBlob("other", "latest", []byte("p")); err != nil {
				t.Fatalf("SaveBlob under another kind: %v", err)
			}
			data, err := s.OpenBlob(KindSnapshot, "latest")
			if err != nil || string(data) != "v2" {
				t.Fatalf("OpenBlob = %q, %v; want v2", data, err)
			}
			if _, err := s.OpenBlob(KindSnapshot, "missing"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("OpenBlob(missing) err = %v; want ErrNotFound", err)
			}
			if data, err := s.OpenBlob("other", "latest"); err != nil || string(data) != "p" {
				t.Fatalf("OpenBlob(other) = %q, %v; want p", data, err)
			}
			if err := s.SaveBlob("..", "x", nil); err == nil {
				t.Fatal("SaveBlob accepted kind ..")
			}
			if err := s.SaveBlob(KindSnapshot, "a/b", nil); err == nil {
				t.Fatal("SaveBlob accepted a slash in the name")
			}

			if err := s.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
		})
	}
}

// TestDiskMatchesMemProperty drives both stores with the same random
// operation sequence and pins identical observable state throughout —
// the property backing the "disk == mem" differential suite.
func TestDiskMatchesMemProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	mem := NewMem()
	disk, err := OpenDisk(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()

	check := func(step int) {
		t.Helper()
		mk, err1 := Keys(mem)
		dk, err2 := Keys(disk)
		if err1 != nil || err2 != nil {
			t.Fatalf("step %d: Keys: %v / %v", step, err1, err2)
		}
		if !reflect.DeepEqual(mk, dk) {
			t.Fatalf("step %d: stores diverged (%d vs %d keys)", step, len(mk), len(dk))
		}
	}
	for step := 0; step < 60; step++ {
		keys := sortedKeys(rng, 1+rng.Intn(300))
		if err := mem.PutEvidence(keys); err != nil {
			t.Fatal(err)
		}
		if err := disk.PutEvidence(keys); err != nil {
			t.Fatal(err)
		}
		check(step)
	}
	// Random sub-ranges agree too.
	for i := 0; i < 20; i++ {
		lo := uint64(rng.Uint32()) << 32
		hi := lo + uint64(rng.Uint32())<<16
		var mk, dk []uint64
		mem.EvidenceRange(lo, hi, func(k uint64) bool { mk = append(mk, k); return true })
		disk.EvidenceRange(lo, hi, func(k uint64) bool { dk = append(dk, k); return true })
		if !reflect.DeepEqual(mk, dk) {
			t.Fatalf("range [%#x,%#x): mem %d keys, disk %d", lo, hi, len(mk), len(dk))
		}
	}
}

// TestDiskReopenEquivalence pins that closing and reopening a disk
// store observes the identical evidence set and blobs.
func TestDiskReopenEquivalence(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	d1, err := OpenDisk(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var all []uint64
	for i := 0; i < 9; i++ { // crosses the compaction threshold
		keys := sortedKeys(rng, 50)
		all = append(all, keys...)
		if err := d1.PutEvidence(keys); err != nil {
			t.Fatal(err)
		}
	}
	if err := d1.SaveBlob(KindSnapshot, "latest", []byte("snap")); err != nil {
		t.Fatal(err)
	}
	want, err := Keys(d1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDisk(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	got, err := Keys(d2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reopen sees %d keys, want %d", len(got), len(want))
	}
	if data, err := d2.OpenBlob(KindSnapshot, "latest"); err != nil || string(data) != "snap" {
		t.Fatalf("reopen blob = %q, %v", data, err)
	}
	// Sanity: every key we ever put is present.
	seen := map[uint64]struct{}{}
	for _, k := range got {
		seen[k] = struct{}{}
	}
	for _, k := range all {
		if _, ok := seen[k]; !ok {
			t.Fatalf("key %#x lost across reopen", k)
		}
	}
}

// TestDiskCompaction pins that compaction bounds the evidence entry count
// and preserves the merged set exactly.
func TestDiskCompaction(t *testing.T) {
	d, err := OpenDisk(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rng := rand.New(rand.NewSource(3))
	want := map[uint64]struct{}{}
	for i := 0; i < 12; i++ {
		keys := sortedKeys(rng, 40)
		for _, k := range keys {
			want[k] = struct{}{}
		}
		if err := d.PutEvidence(keys); err != nil {
			t.Fatal(err)
		}
		if n, _ := filepath.Glob(filepath.Join(d.Dir(), "evidence-*.delta")); len(n) > compactEvery+1 {
			t.Fatalf("after put %d: %d entries, compaction threshold %d", i, len(n), compactEvery)
		}
	}
	got, err := Keys(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("compacted store holds %d keys, want %d", len(got), len(want))
	}
	for _, k := range got {
		if _, ok := want[k]; !ok {
			t.Fatalf("compaction invented key %#x", k)
		}
	}
}

func TestDiskRequiresDir(t *testing.T) {
	if _, err := Open("disk"); err == nil {
		t.Fatal("disk store opened without a directory")
	}
}

func ExampleOpen() {
	s, _ := Open("mem")
	s.PutEvidence([]uint64{1<<32 | 2})
	n, _ := s.EvidenceLen()
	fmt.Println(s.Name(), n)
	// Output: mem 1
}
