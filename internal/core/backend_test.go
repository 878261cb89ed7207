package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	emnet "repro/internal/net"
	"repro/internal/store"
	"repro/internal/testmodel"
	"repro/internal/wire"
)

// runOn executes a scheme on a backend, saving nothing.
func runOn(t *testing.T, cfg core.Config, scheme string, b core.Backend) *core.Result {
	t.Helper()
	res, err := core.RunBackend(bg, cfg, scheme, b)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertSameRun fails unless the two results carry the same match set
// and the same deterministic statistics (wall-clock counters excluded).
func assertSameRun(t *testing.T, label string, got, want *core.Result) {
	t.Helper()
	if !got.Matches.Equal(want.Matches) {
		t.Errorf("%s: match sets diverge: %d vs %d matches", label, got.Matches.Len(), want.Matches.Len())
	}
	gs, ws := got.Stats, want.Stats
	if gs.Evaluations != ws.Evaluations || gs.MatcherCalls != ws.MatcherCalls ||
		gs.MessagesSent != ws.MessagesSent || gs.MaximalMessages != ws.MaximalMessages ||
		gs.PromotedSets != ws.PromotedSets || gs.Skips != ws.Skips ||
		gs.MaxRevisits != ws.MaxRevisits || len(gs.ActiveSizes) != len(ws.ActiveSizes) {
		t.Errorf("%s: deterministic stats diverge:\ngot:  %v\nwant: %v", label, got.Stats, want.Stats)
	}
}

// TestShardedMatchesPoolRandom: on random supermodular models, sharded
// execution (the network backend's in-process workers) must land on the
// exact output of the pool's snapshot rounds (two workers) — match set
// AND deterministic statistics — for every shard count and every scheme;
// the one-worker pool, which reduces in order
// instead, shares the match set. This is Theorem 2/4 consistency applied
// to the backend boundary.
func TestShardedMatchesPoolRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		m, cover := testmodel.Random(rng)
		inOrder := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
		cfg := inOrder
		cfg.Parallelism = 2
		for _, scheme := range []string{"NO-MP", "SMP", "MMP"} {
			pool := runOn(t, cfg, scheme, core.PoolBackend{})
			if serial := runOn(t, inOrder, scheme, core.PoolBackend{}); !serial.Matches.Equal(pool.Matches) {
				t.Errorf("trial %d: %s in-order reduce diverges from snapshot rounds", trial, scheme)
			}
			for _, k := range []int{1, 2, 3, 7} {
				sharded := runOn(t, cfg, scheme, &emnet.Backend{Workers: k})
				assertSameRun(t, fmt.Sprintf("trial %d %s k=%d", trial, scheme, k), sharded, pool)
			}
		}
	}
}

// savingInto returns cfg saving its state into st's state blob, as a
// runner WithStateStore(st) does.
func savingInto(cfg core.Config, st store.Store) core.Config {
	cfg.Save = func(b []byte) error { return st.SaveBlob(store.KindSnapshot, "latest", b) }
	return cfg
}

// savedBlob returns st's state blob; nil when there is none.
func savedBlob(t *testing.T, st store.Store) []byte {
	t.Helper()
	data, err := st.OpenBlob(store.KindSnapshot, "latest")
	if errors.Is(err, store.ErrNotFound) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// readCheckpoint decodes st's state blob; nil when there is none.
func readCheckpoint(t *testing.T, st store.Store) *wire.Checkpoint {
	t.Helper()
	data := savedBlob(t, st)
	if data == nil {
		return nil
	}
	ck, err := wire.UnmarshalCheckpoint(data)
	if err != nil {
		t.Fatalf("decoding the state blob: %v", err)
	}
	return ck
}

// resumeFrom continues scheme on b from the state st holds — a cold run
// when it holds none — saving into st as it goes. The state must be of
// this run (core.CheckHeader), as Pipeline.Reopen requires.
func resumeFrom(cfg core.Config, scheme string, b core.Backend, st store.Store) (*core.Result, error) {
	var from *core.State
	data, err := st.OpenBlob(store.KindSnapshot, "latest")
	if err == nil {
		if from, err = core.DecodeState(data); err == nil {
			err = core.CheckHeader(&from.Header, scheme, cfg.MatcherLabel, cfg.Cover)
		}
	} else if errors.Is(err, store.ErrNotFound) {
		err = nil
	}
	if err != nil {
		return nil, err
	}
	return core.RunBackendFrom(bg, savingInto(cfg, st), scheme, b, from)
}

// killAfter runs scheme on b, saving into a fresh store, and kills it
// (cancels its context) at the first progress event of round r. A backend
// that maps a round before it reduces it — the pool with two workers, the
// sharded backend — still ends and saves round r and stops before round
// r+1. killed is false when round r was the last.
func killAfter(t *testing.T, cfg core.Config, scheme string, b core.Backend, r int) (st store.Store, killed bool) {
	t.Helper()
	st = store.NewMem()
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	cfg.Progress = func(e core.ProgressEvent) {
		if e.Round == r {
			cancel()
		}
	}
	_, err := core.RunBackend(ctx, savingInto(cfg, st), scheme, b)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("%s killed in round %d: %v", scheme, r, err)
	}
	return st, err != nil
}

// TestCheckpointResumeAtEveryBoundary: a run saving its state, killed
// after round r — on the pool or on sharded-2 — resumes, on the other
// backend, to the uninterrupted run's match set, with statistics that only
// grew past the saved values, for every r and every scheme. The saved
// state holds the whole M+: every pair the one after round r-1 held.
func TestCheckpointResumeAtEveryBoundary(t *testing.T) {
	// Random models mostly settle in two rounds; the paper's example takes
	// three, so its kill after round 2 is one no random trial here makes.
	m, cover, _ := testmodel.PaperExample()
	models := []core.Config{{Cover: cover, Matcher: m, Relation: m.Relation()}}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		m, cover := testmodel.Random(rng)
		models = append(models, core.Config{Cover: cover, Matcher: m, Relation: m.Relation()})
	}
	kills := 0
	for _, cfg := range models {
		cfg.Parallelism = 2
		for _, scheme := range []string{"SMP", "MMP"} {
			full := runOn(t, cfg, scheme, core.PoolBackend{})
			for _, c := range []struct {
				name         string
				kill, resume core.Backend
			}{
				{"pool", core.PoolBackend{}, &emnet.Backend{Workers: 2}},
				{"sharded-2", &emnet.Backend{Workers: 2}, core.PoolBackend{}},
			} {
				var before []uint64 // M+ after round r-1
				for r := 1; ; r++ {
					st, killed := killAfter(t, cfg, scheme, c.kill, r)
					if !killed {
						break
					}
					kills++
					ck := readCheckpoint(t, st)
					if ck == nil || ck.Round != r || ck.Done {
						t.Fatalf("%s killed on %s after round %d left checkpoint %+v", scheme, c.name, r, ck)
					}
					for _, k := range before {
						if _, ok := slices.BinarySearch(ck.Delta, k); !ok {
							t.Fatalf("%s on %s: the checkpoint after round %d lost pair %#x of round %d's", scheme, c.name, r, k, r-1)
						}
					}
					before = ck.Delta
					resumed, err := resumeFrom(cfg, scheme, c.resume, st)
					if err != nil {
						t.Fatalf("%s: resume after round %d on %s: %v", scheme, r, c.name, err)
					}
					if !resumed.Matches.Equal(full.Matches) {
						t.Errorf("%s: resume after round %d on %s diverges: %d vs %d matches",
							scheme, r, c.name, resumed.Matches.Len(), full.Matches.Len())
					}
					if resumed.Stats.Evaluations < ck.Stats.Evaluations ||
						resumed.Stats.MatcherCalls < ck.Stats.MatcherCalls ||
						resumed.Stats.MessagesSent < ck.Stats.MessagesSent {
						t.Errorf("%s: resume after round %d on %s lost statistics: %v < checkpointed %+v",
							scheme, r, c.name, resumed.Stats, ck.Stats)
					}
				}
			}
		}
	}
	if kills == 0 {
		t.Fatal("no run outlived its first round: no boundary was cut")
	}
}

// countingMatcher wraps a matcher and counts Match invocations. The
// counter is atomic so the wrapper stays race-free under backends that
// evaluate neighborhoods concurrently.
type countingMatcher struct {
	*testmodel.Model
	calls atomic.Int64
}

func (c *countingMatcher) Match(entities []core.EntityID, pos, neg core.PairSet) core.PairSet {
	c.calls.Add(1)
	return c.Model.Match(entities, pos, neg)
}

// TestResumeCompletedTrail: resuming a finished run's state rebuilds the
// result purely from the serialized evidence — zero matcher calls.
func TestResumeCompletedTrail(t *testing.T) {
	m, cover, _ := testmodel.PaperExample()
	wrapped := &countingMatcher{Model: m}
	cfg := core.Config{Cover: cover, Matcher: wrapped, Relation: m.Relation()}
	st := store.NewMem()
	full, err := core.RunBackend(bg, savingInto(cfg, st), "SMP", core.PoolBackend{})
	if err != nil {
		t.Fatal(err)
	}
	wrapped.calls.Store(0)
	resumed, err := resumeFrom(cfg, "SMP", core.PoolBackend{}, st)
	if err != nil {
		t.Fatal(err)
	}
	if wrapped.calls.Load() != 0 {
		t.Errorf("resuming a completed state called the matcher %d times", wrapped.calls.Load())
	}
	if !resumed.Matches.Equal(full.Matches) {
		t.Errorf("rebuilt result diverges: %d vs %d matches", resumed.Matches.Len(), full.Matches.Len())
	}
}

// TestResumeRejectsForeignTrail: a saved state from a different scheme
// or cover must be refused, not silently replayed.
func TestResumeRejectsForeignTrail(t *testing.T) {
	m, cover, _ := testmodel.PaperExample()
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
	st := store.NewMem()
	if _, err := core.RunBackend(bg, savingInto(cfg, st), "SMP", core.PoolBackend{}); err != nil {
		t.Fatal(err)
	}
	if _, err := resumeFrom(cfg, "MMP", core.PoolBackend{}, st); err == nil {
		t.Error("resuming an SMP state as MMP succeeded")
	}
}

// TestResumeRejectsMatcherMismatch: saved states are labeled with the
// matcher that wrote them; a different label on resume is refused (empty
// labels on either side opt out — anonymous matchers).
func TestResumeRejectsMatcherMismatch(t *testing.T) {
	m, cover, _ := testmodel.PaperExample()
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
	labeled := func(label string) core.Config {
		c := cfg
		c.MatcherLabel = label
		return c
	}
	st := store.NewMem()
	if _, err := core.RunBackend(bg, savingInto(labeled("mln"), st), "SMP", core.PoolBackend{}); err != nil {
		t.Fatal(err)
	}
	if _, err := resumeFrom(labeled("rules"), "SMP", core.PoolBackend{}, st); err == nil {
		t.Error("resuming an mln-labeled state as rules succeeded")
	}
	if _, err := resumeFrom(labeled("mln"), "SMP", core.PoolBackend{}, st); err != nil {
		t.Errorf("resuming with the matching label failed: %v", err)
	}
	if _, err := resumeFrom(cfg, "SMP", core.PoolBackend{}, st); err != nil {
		t.Errorf("unlabeled resume of a labeled state failed: %v", err)
	}
}

// TestResumeRejectsMessagesOnNonMMP: a saved state carrying maximal
// messages cannot resume a scheme that exchanges none (would otherwise
// dereference a nil message store).
func TestResumeRejectsMessagesOnNonMMP(t *testing.T) {
	m, cover, _ := testmodel.PaperExample()
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
	st := store.NewMem()
	full, err := core.RunBackend(bg, savingInto(cfg, st), "SMP", core.PoolBackend{})
	if err != nil {
		t.Fatal(err)
	}
	// Graft a Messages list onto the final state (the one whose messages
	// a resume loads): structurally valid wire, semantically foreign to
	// SMP.
	ck := readCheckpoint(t, st)
	keys := full.Matches.SortedKeys()
	if len(keys) < 2 {
		t.Skip("needs at least two matches to build a message")
	}
	ck.Messages = [][]uint64{{uint64(keys[0]), uint64(keys[1])}}
	forged, err := ck.Marshal(wire.Binary)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveBlob(store.KindSnapshot, "latest", forged); err != nil {
		t.Fatal(err)
	}
	if _, err := resumeFrom(cfg, "SMP", core.PoolBackend{}, st); err == nil {
		t.Error("resuming an SMP state carrying maximal messages succeeded")
	}
}

// TestFreshRunClearsStaleTrail: a fresh run saving into a store holding
// another run's state replaces it before its first round evaluates, so a
// kill in round 1 leaves only the fresh run's own start to resume from —
// which resumes as round 1, the cold run exactly, skips included.
func TestFreshRunClearsStaleTrail(t *testing.T) {
	m, cover, _ := testmodel.PaperExample()
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
	st := store.NewMem()
	if _, err := core.RunBackend(bg, savingInto(cfg, st), "MMP", core.PoolBackend{}); err != nil {
		t.Fatal(err)
	}
	if readCheckpoint(t, st) == nil {
		t.Fatal("the earlier run left no state")
	}
	// The one-worker pool reduces each job before it evaluates the next,
	// so a kill at round 1's first event ends the run inside round 1.
	ctx, cancel := context.WithCancel(bg)
	killed := savingInto(cfg, st)
	killed.Progress = func(core.ProgressEvent) { cancel() }
	if _, err := core.RunBackend(ctx, killed, "SMP", core.PoolBackend{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run: %v, want context.Canceled", err)
	}
	if ck := readCheckpoint(t, st); ck == nil || ck.Scheme != "SMP" || ck.Round != 0 || ck.Done || len(ck.Delta) != 0 {
		t.Fatalf("a fresh run killed in round 1 left %+v, want its cold start", ck)
	}
	full, err := resumeFrom(cfg, "SMP", core.PoolBackend{}, st)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, "resuming after the killed fresh run", full, runOn(t, cfg, "SMP", core.PoolBackend{}))

	// A matcher that may skip re-activations shows which round the start
	// resumes as: round 1 skips nothing, a re-activation round would.
	skipping := core.Config{Cover: skipCover(), Matcher: skippingMatcher()}
	st = store.NewMem()
	canceled, cancel := context.WithCancel(bg)
	cancel()
	if _, err := core.RunBackend(canceled, savingInto(skipping, st), "SMP", core.PoolBackend{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run: %v, want context.Canceled", err)
	}
	resumed, err := resumeFrom(skipping, "SMP", core.PoolBackend{}, st)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, "resuming a saved cold start", resumed, runOn(t, skipping, "SMP", core.PoolBackend{}))
}

// TestOlderRoundFilesUntouched: the files of older builds — the
// round-NNNNNN.ckpt trail and the checkpoint-000000.ckpt record — are
// never read, written or removed: a resume in a store beside them runs
// fresh to the uninterrupted result, and a fresh run, its saves and a
// resume of those leave every such file byte-for-byte as it was.
func TestOlderRoundFilesUntouched(t *testing.T) {
	m, cover, _ := testmodel.PaperExample()
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
	dir := t.TempDir()
	old := map[string][]byte{
		"round-000001.ckpt":      []byte("an older build's round 1"),
		"round-000002.ckpt":      {0xff, 0x00, 0x01},
		"checkpoint-000000.ckpt": []byte("an older build's checkpoint"),
	}
	for name, data := range old {
		for _, at := range []string{dir, filepath.Join(dir, "store")} {
			if err := os.MkdirAll(at, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(at, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, err := store.Open("disk", store.WithDir(filepath.Join(dir, "store")))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	want := runOn(t, cfg, "SMP", core.PoolBackend{})
	for _, resume := range []bool{true, false, true} {
		var res *core.Result
		if resume {
			res, err = resumeFrom(cfg, "SMP", core.PoolBackend{}, st)
		} else {
			res, err = core.RunBackend(bg, savingInto(cfg, st), "SMP", core.PoolBackend{})
		}
		if err != nil {
			t.Fatalf("resume=%v: %v", resume, err)
		}
		if !res.Matches.Equal(want.Matches) {
			t.Errorf("resume=%v: %d matches, the uninterrupted run has %d", resume, res.Matches.Len(), want.Matches.Len())
		}
		for name, data := range old {
			for _, at := range []string{dir, filepath.Join(dir, "store")} {
				if got, err := os.ReadFile(filepath.Join(at, name)); err != nil || !bytes.Equal(got, data) {
					t.Fatalf("resume=%v: %s was touched: %q, %v", resume, filepath.Join(at, name), got, err)
				}
			}
		}
	}
	for _, at := range []string{dir, filepath.Join(dir, "store")} {
		if q, _ := filepath.Glob(filepath.Join(at, "*.corrupt")); len(q) != 0 {
			t.Errorf("quarantined %v", q)
		}
	}
}

// wrappingBackend returns ctx cancellation wrapped in an internal error
// — the shape driveRounds must normalize away.
type wrappingBackend struct{}

func (wrappingBackend) RunRounds(ctx context.Context, plan *core.RoundPlan, d *core.RoundDriver) error {
	<-ctx.Done()
	return fmt.Errorf("backend: round 1 aborted: %w", ctx.Err())
}

// TestBackendsReturnBareCtxErr pins the cancellation contract for every
// backend: when ctx cancellation races a round boundary, RunBackend
// returns exactly ctx.Err() — context.Canceled itself, not a wrapped
// internal error — so callers can switch on it uniformly.
func TestBackendsReturnBareCtxErr(t *testing.T) {
	m, cover, _ := testmodel.PaperExample()
	backends := map[string]core.Backend{
		"pool":     core.PoolBackend{},
		"sharded":  &emnet.Backend{Workers: 3},
		"wrapping": wrappingBackend{},
	}
	for name, b := range backends {
		for _, scheme := range []string{"SMP", "MMP"} {
			ctx, cancel := context.WithCancel(context.Background())
			// Cancel from inside the run, after the first evaluation
			// reports — the racy boundary the contract is about.
			cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation(),
				Progress: func(core.ProgressEvent) { cancel() }}
			if name == "wrapping" {
				cancel() // never evaluates; blocks on ctx instead
			}
			_, err := core.RunBackend(ctx, cfg, scheme, b)
			if err != context.Canceled {
				t.Errorf("%s/%s: want bare context.Canceled, got %v (type %T)", name, scheme, err, err)
			}
			cancel()
		}
	}
}

// TestBackendsReturnBareDeadlineErr is the DeadlineExceeded twin.
func TestBackendsReturnBareDeadlineErr(t *testing.T) {
	m, cover, _ := testmodel.PaperExample()
	for name, b := range map[string]core.Backend{
		"pool": core.PoolBackend{}, "sharded": &emnet.Backend{Workers: 2},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), -time.Second)
		cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
		_, err := core.RunBackend(ctx, cfg, "SMP", b)
		if err != context.DeadlineExceeded {
			t.Errorf("%s: want bare context.DeadlineExceeded, got %v (type %T)", name, err, err)
		}
		cancel()
	}
}
