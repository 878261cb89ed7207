package core_test

import (
	"fmt"
	"os"
	"path/filepath"
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

// plantDamaged runs scheme checkpointed into a fresh directory, then
// replaces its checkpoint by damage(its bytes), and returns the directory,
// the checkpoint's path and its intact bytes.
func plantDamaged(t *testing.T, cfg core.Config, scheme string, damage func([]byte) []byte) (dir, path string, intact []byte) {
	t.Helper()
	dir = t.TempDir()
	if _, err := core.RunBackend(bg, cfg, scheme, core.PoolBackend{}, core.CheckpointConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	files := trailFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("the run left %d checkpoints, want one", len(files))
	}
	path = files[0]
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, damage(intact), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, path, intact
}

// resumeOverDamage resumes dir, whose checkpoint does not decode: the
// checkpoint must be set aside as *.corrupt and the run start fresh,
// landing on the uninterrupted result want.
func resumeOverDamage(t *testing.T, cfg core.Config, scheme, dir, path, what string, want *core.Result) {
	t.Helper()
	resumed, err := core.RunBackend(bg, cfg, scheme, core.PoolBackend{}, core.CheckpointConfig{Dir: dir, Resume: true})
	if err != nil {
		t.Fatalf("%s: resume over %s: %v", scheme, what, err)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("%s: %s not quarantined: %v", scheme, what, err)
	}
	if !resumed.Matches.Equal(want.Matches) {
		t.Fatalf("%s: resume over %s reached %d matches, the uninterrupted run has %d",
			scheme, what, resumed.Matches.Len(), want.Matches.Len())
	}
}

// TestResumeRefusesJSONRecord: the only codec is binary, so a checkpoint
// in the JSON envelope older builds could write (now only a hand edit) is
// an unreadable record like any other: a resume sets it aside and runs
// fresh to the uninterrupted result.
func TestResumeRefusesJSONRecord(t *testing.T) {
	m, cover, _ := testmodel.PaperExample()
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
	full := runOn(t, cfg, "MMP", core.PoolBackend{})
	toJSON := func([]byte) []byte { return []byte(`{"cemw":1,"type":3,"msg":{"scheme":"MMP","round":1}}`) }
	dir, path, _ := plantDamaged(t, cfg, "MMP", toJSON)
	resumeOverDamage(t, cfg, "MMP", dir, path, "a JSON checkpoint", full)
}

// TestCheckpointTruncationAtEveryByte: every commit is fsynced, so only
// damage from outside can cut a checkpoint. For every prefix a resume
// must set the checkpoint aside and run fresh, landing on the
// uninterrupted run's result.
func TestCheckpointTruncationAtEveryByte(t *testing.T) {
	m, cover, _ := testmodel.PaperExample()
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
	for _, scheme := range []string{"SMP", "MMP"} {
		full := runOn(t, cfg, scheme, core.PoolBackend{})
		_, src, intact := plantDamaged(t, cfg, scheme, func(raw []byte) []byte { return raw })
		for cut := 0; cut < len(intact); cut++ {
			dir := t.TempDir()
			path := filepath.Join(dir, filepath.Base(src))
			if err := os.WriteFile(path, intact[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			resumeOverDamage(t, cfg, scheme, dir, path, fmt.Sprintf("a checkpoint cut at byte %d/%d", cut, len(intact)), full)
		}
	}
}
