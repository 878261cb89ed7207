package core_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/testmodel"
	"repro/internal/wire"
)

// rewriteRecord decodes one round file, lets edit change it, and writes
// it back.
func rewriteRecord(t *testing.T, path string, edit func(*wire.Checkpoint)) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := wire.UnmarshalCheckpoint(raw)
	if err != nil {
		t.Fatal(err)
	}
	edit(ck)
	forged, err := ck.Marshal(wire.Binary)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, forged, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestResumeRejectsOutOfRangeEvidence: a trail is input from outside the
// program. A delta key or a maximal-message pair that the wire codec
// accepts (a normalized pair) but that names entities the cover does not
// have must be refused on resume — by the same check a warm-start seed
// and a reopened store snapshot go through — not folded into M+ and
// reported as a match.
func TestResumeRejectsOutOfRangeEvidence(t *testing.T) {
	m, cover, _ := testmodel.PaperExample()
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
	foreign := uint64(core.MakePair(5000, 6000).Key())
	t.Run("SMP-delta/binary", func(t *testing.T) {
		dir := t.TempDir()
		if _, err := core.RunBackend(bg, cfg, "SMP", core.PoolBackend{}, core.CheckpointConfig{Dir: dir}); err != nil {
			t.Fatal(err)
		}
		rewriteRecord(t, trailFiles(t, dir)[0], func(ck *wire.Checkpoint) {
			ck.Delta = append(ck.Delta, foreign)
		})
		res, err := core.RunBackend(bg, cfg, "SMP", core.PoolBackend{}, core.CheckpointConfig{Dir: dir, Resume: true})
		if err == nil {
			t.Errorf("resumed over a delta naming entities 5000 and 6000 of %d; in the result: %v",
				cover.NumEntities, res.Matches.Has(core.MakePair(5000, 6000)))
		}
	})
	t.Run("MMP-message/binary", func(t *testing.T) {
		dir := t.TempDir()
		if _, err := core.RunBackend(bg, cfg, "MMP", core.PoolBackend{}, core.CheckpointConfig{Dir: dir}); err != nil {
			t.Fatal(err)
		}
		files := trailFiles(t, dir)
		rewriteRecord(t, files[len(files)-1], func(ck *wire.Checkpoint) {
			ck.Messages = append(ck.Messages, []uint64{foreign, foreign + 1})
		})
		if _, err := core.RunBackend(bg, cfg, "MMP", core.PoolBackend{}, core.CheckpointConfig{Dir: dir, Resume: true}); err == nil {
			t.Errorf("resumed over a maximal message naming entities beyond the cover's %d", cover.NumEntities)
		}
	})
}

// plantTrail copies a trail into a fresh directory with record i
// replaced by damage(its bytes), and returns the directory.
func plantTrail(t *testing.T, files []string, i int, damage func([]byte) []byte) string {
	t.Helper()
	dir := t.TempDir()
	for j, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if j == i {
			raw = damage(raw)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestResumeRefusesJSONRecord: the only codec is binary, so a round
// record in the JSON envelope older builds could write (now only a hand
// edit) is an unreadable record like any other. As the newest record it
// is quarantined and the resume continues from the round before it to
// the uninterrupted result; as an earlier record it fails the resume with
// an error that names the file.
func TestResumeRefusesJSONRecord(t *testing.T) {
	m, cover, _ := testmodel.PaperExample()
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
	src := t.TempDir()
	full, err := core.RunBackend(bg, cfg, "MMP", core.PoolBackend{}, core.CheckpointConfig{Dir: src})
	if err != nil {
		t.Fatal(err)
	}
	files := trailFiles(t, src)
	if len(files) < 2 {
		t.Fatalf("the trail has %d records; the test needs a record before the JSON one", len(files))
	}
	toJSON := func([]byte) []byte { return []byte(`{"cemw":1,"type":3,"msg":{"scheme":"MMP","round":1}}`) }
	resume := func(dir string) (*core.Result, error) {
		return core.RunBackend(bg, cfg, "MMP", core.PoolBackend{}, core.CheckpointConfig{Dir: dir, Resume: true})
	}

	last := len(files) - 1
	dir := plantTrail(t, files, last, toJSON)
	resumed, err := resume(dir)
	if err != nil {
		t.Fatalf("resume over a JSON last record: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, filepath.Base(files[last])+".corrupt")); err != nil {
		t.Errorf("JSON last record not quarantined: %v", err)
	}
	if !resumed.Matches.Equal(full.Matches) {
		t.Errorf("resumed to %d matches, the uninterrupted run has %d", resumed.Matches.Len(), full.Matches.Len())
	}

	first := filepath.Base(files[0])
	if _, err := resume(plantTrail(t, files, 0, toJSON)); err == nil || !strings.Contains(err.Error(), first) {
		t.Errorf("resume over a JSON first record: %v, want an error naming %s", err, first)
	}
}

// TestCheckpointTrailTruncationAtEveryByte: the round trail is not
// fsynced, so a power cut can leave any prefix of the newest record. For
// every such prefix a resume must quarantine the record and continue from
// the round before it, landing on the uninterrupted run's result; the
// same damage to an earlier record is an error that names the file.
func TestCheckpointTrailTruncationAtEveryByte(t *testing.T) {
	m, cover, _ := testmodel.PaperExample()
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
	for _, scheme := range []string{"SMP", "MMP"} {
		src := t.TempDir()
		full, err := core.RunBackend(bg, cfg, scheme, core.PoolBackend{}, core.CheckpointConfig{Dir: src})
		if err != nil {
			t.Fatal(err)
		}
		files := trailFiles(t, src)
		if len(files) < 2 {
			t.Fatalf("%s: the trail has %d records; the test needs a record before the torn one", scheme, len(files))
		}
		records := make([][]byte, len(files))
		for i, f := range files {
			if records[i], err = os.ReadFile(f); err != nil {
				t.Fatal(err)
			}
		}
		// plant copies the trail with record i cut to n bytes.
		plant := func(i, n int) string {
			return plantTrail(t, files, i, func(raw []byte) []byte { return raw[:n] })
		}
		resume := func(dir string) (*core.Result, error) {
			return core.RunBackend(bg, cfg, scheme, core.PoolBackend{}, core.CheckpointConfig{Dir: dir, Resume: true})
		}

		last := len(records) - 1
		before, err := wire.UnmarshalCheckpoint(records[last-1])
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(records[last]); cut++ {
			dir := plant(last, cut)
			resumed, err := resume(dir)
			if err != nil {
				t.Fatalf("%s: last record cut at byte %d/%d: resume failed: %v", scheme, cut, len(records[last]), err)
			}
			torn := filepath.Join(dir, filepath.Base(files[last]))
			if _, err := os.Stat(torn + ".corrupt"); err != nil {
				t.Fatalf("%s: cut at byte %d: torn record not quarantined: %v", scheme, cut, err)
			}
			if !resumed.Matches.Equal(full.Matches) {
				t.Fatalf("%s: cut at byte %d: resumed to %d matches, the uninterrupted run has %d",
					scheme, cut, resumed.Matches.Len(), full.Matches.Len())
			}
			if resumed.Stats.Evaluations < before.Stats.Evaluations {
				t.Fatalf("%s: cut at byte %d: %d evaluations, fewer than the %d checkpointed at round %d",
					scheme, cut, resumed.Stats.Evaluations, before.Stats.Evaluations, before.Round)
			}
		}

		dir := plant(0, len(records[0])/2)
		if _, err := resume(dir); err == nil || !strings.Contains(err.Error(), filepath.Base(files[0])) {
			t.Errorf("%s: resume over a torn FIRST record: %v, want an error naming it", scheme, err)
		}
		if q, _ := filepath.Glob(filepath.Join(dir, "*.corrupt")); len(q) != 0 {
			t.Errorf("%s: a non-trailing record was quarantined: %v", scheme, q)
		}
	}
}
