package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/testmodel"
	"repro/internal/wire"
)

// rewriteRecord decodes st's state blob, lets edit change it, and saves
// it back.
func rewriteRecord(t *testing.T, st store.Store, edit func(*wire.Checkpoint)) {
	t.Helper()
	ck := readCheckpoint(t, st)
	edit(ck)
	forged, err := ck.Marshal(wire.Binary)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveBlob(store.KindSnapshot, "latest", forged); err != nil {
		t.Fatal(err)
	}
}

// TestResumeRejectsOutOfRangeEvidence: a saved state is input from
// outside the program. A delta key or a maximal-message pair that the
// wire codec accepts (a normalized pair) but that names entities the
// cover does not have must be refused on resume — by the same check a
// warm-start seed and a reopened store snapshot go through — not folded
// into M+ and reported as a match.
func TestResumeRejectsOutOfRangeEvidence(t *testing.T) {
	m, cover, _ := testmodel.PaperExample()
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
	foreign := uint64(core.MakePair(5000, 6000).Key())
	t.Run("SMP-delta/binary", func(t *testing.T) {
		st := store.NewMem()
		if _, err := core.RunBackend(bg, savingInto(cfg, st), "SMP", core.PoolBackend{}); err != nil {
			t.Fatal(err)
		}
		rewriteRecord(t, st, func(ck *wire.Checkpoint) {
			ck.Delta = append(ck.Delta, foreign)
		})
		res, err := resumeFrom(cfg, "SMP", core.PoolBackend{}, st)
		if err == nil {
			t.Errorf("resumed over a delta naming entities 5000 and 6000 of %d; in the result: %v",
				cover.NumEntities, res.Matches.Has(core.MakePair(5000, 6000)))
		}
	})
	t.Run("MMP-message/binary", func(t *testing.T) {
		st := store.NewMem()
		if _, err := core.RunBackend(bg, savingInto(cfg, st), "MMP", core.PoolBackend{}); err != nil {
			t.Fatal(err)
		}
		rewriteRecord(t, st, func(ck *wire.Checkpoint) {
			ck.Messages = append(ck.Messages, []uint64{foreign, foreign + 1})
		})
		if _, err := resumeFrom(cfg, "MMP", core.PoolBackend{}, st); err == nil {
			t.Errorf("resumed over a maximal message naming entities beyond the cover's %d", cover.NumEntities)
		}
	})
}
