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
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	emnet "repro/internal/net"
	"repro/internal/testmodel"
	"repro/internal/wire"
)

// runOn executes a scheme on a backend with no checkpointing.
func runOn(t *testing.T, cfg core.Config, scheme string, b core.Backend) *core.Result {
	t.Helper()
	res, err := core.RunBackend(bg, cfg, scheme, b, core.CheckpointConfig{})
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

// trailFiles returns the checkpoint trail of dir: the run's one
// checkpoint file, or none.
func trailFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	return files
}

// readCheckpoint decodes dir's checkpoint; nil when there is none.
func readCheckpoint(t *testing.T, dir string) *wire.Checkpoint {
	t.Helper()
	files := trailFiles(t, dir)
	if len(files) == 0 {
		return nil
	}
	if len(files) > 1 {
		t.Fatalf("%s holds %d checkpoints, want one: %v", dir, len(files), files)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	ck, err := wire.UnmarshalCheckpoint(raw)
	if err != nil {
		t.Fatalf("decoding %s: %v", files[0], err)
	}
	return ck
}

// killAfter runs scheme on b, checkpointing into a fresh directory, and
// kills it (cancels its context) at the first progress event of round r.
// A backend that maps a round before it reduces it — the pool with two
// workers, the sharded backend — still ends and checkpoints round r and
// stops before round r+1. killed is false when round r was the last.
func killAfter(t *testing.T, cfg core.Config, scheme string, b core.Backend, r int) (dir string, killed bool) {
	t.Helper()
	dir = t.TempDir()
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	cfg.Progress = func(e core.ProgressEvent) {
		if e.Round == r {
			cancel()
		}
	}
	_, err := core.RunBackend(ctx, cfg, scheme, b, core.CheckpointConfig{Dir: dir})
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("%s killed in round %d: %v", scheme, r, err)
	}
	return dir, err != nil
}

// TestCheckpointResumeAtEveryBoundary: a checkpointed run killed after
// round r — on the pool or on sharded-2 — resumes, on the other backend,
// to the uninterrupted run's match set, with statistics that only grew
// past the checkpointed values, for every r and every scheme. The
// checkpoint holds the whole M+: every pair the one after round r-1 held.
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
					dir, killed := killAfter(t, cfg, scheme, c.kill, r)
					if !killed {
						break
					}
					kills++
					ck := readCheckpoint(t, dir)
					if ck == nil || ck.Round != r || ck.Done {
						t.Fatalf("%s killed on %s after round %d left checkpoint %+v", scheme, c.name, r, ck)
					}
					for _, k := range before {
						if _, ok := slices.BinarySearch(ck.Delta, k); !ok {
							t.Fatalf("%s on %s: the checkpoint after round %d lost pair %#x of round %d's", scheme, c.name, r, k, r-1)
						}
					}
					before = ck.Delta
					resumed, err := core.RunBackend(bg, cfg, scheme, c.resume,
						core.CheckpointConfig{Dir: dir, Resume: true})
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

// TestResumeCompletedTrail: resuming a finished run's directory rebuilds
// the result purely from the serialized deltas — zero matcher calls.
func TestResumeCompletedTrail(t *testing.T) {
	m, cover, _ := testmodel.PaperExample()
	wrapped := &countingMatcher{Model: m}
	cfg := core.Config{Cover: cover, Matcher: wrapped, Relation: m.Relation()}
	dir := t.TempDir()
	full, err := core.RunBackend(bg, cfg, "SMP", core.PoolBackend{}, core.CheckpointConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	wrapped.calls.Store(0)
	resumed, err := core.RunBackend(bg, cfg, "SMP", core.PoolBackend{},
		core.CheckpointConfig{Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if wrapped.calls.Load() != 0 {
		t.Errorf("resuming a completed trail called the matcher %d times", wrapped.calls.Load())
	}
	if !resumed.Matches.Equal(full.Matches) {
		t.Errorf("rebuilt result diverges: %d vs %d matches", resumed.Matches.Len(), full.Matches.Len())
	}
}

// TestResumeRejectsForeignTrail: a checkpoint trail from a different
// scheme or cover must be refused, not silently replayed.
func TestResumeRejectsForeignTrail(t *testing.T) {
	m, cover, _ := testmodel.PaperExample()
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
	dir := t.TempDir()
	if _, err := core.RunBackend(bg, cfg, "SMP", core.PoolBackend{}, core.CheckpointConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunBackend(bg, cfg, "MMP", core.PoolBackend{},
		core.CheckpointConfig{Dir: dir, Resume: true}); err == nil {
		t.Error("resuming an SMP trail as MMP succeeded")
	}
}

// TestResumeRejectsMatcherMismatch: trails are labeled with the matcher
// that wrote them; a different label on resume is refused (empty labels
// on either side opt out — anonymous matchers).
func TestResumeRejectsMatcherMismatch(t *testing.T) {
	m, cover, _ := testmodel.PaperExample()
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
	dir := t.TempDir()
	if _, err := core.RunBackend(bg, cfg, "SMP", core.PoolBackend{},
		core.CheckpointConfig{Dir: dir, Matcher: "mln"}); err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunBackend(bg, cfg, "SMP", core.PoolBackend{},
		core.CheckpointConfig{Dir: dir, Resume: true, Matcher: "rules"}); err == nil {
		t.Error("resuming an mln-labeled trail as rules succeeded")
	}
	if _, err := core.RunBackend(bg, cfg, "SMP", core.PoolBackend{},
		core.CheckpointConfig{Dir: dir, Resume: true, Matcher: "mln"}); err != nil {
		t.Errorf("resuming with the matching label failed: %v", err)
	}
	if _, err := core.RunBackend(bg, cfg, "SMP", core.PoolBackend{},
		core.CheckpointConfig{Dir: dir, Resume: true}); err != nil {
		t.Errorf("unlabeled resume of a labeled trail failed: %v", err)
	}
}

// TestResumeRejectsMessagesOnNonMMP: a trail carrying maximal messages
// cannot resume a scheme that exchanges none (would otherwise
// dereference a nil message store).
func TestResumeRejectsMessagesOnNonMMP(t *testing.T) {
	m, cover, _ := testmodel.PaperExample()
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
	dir := t.TempDir()
	full, err := core.RunBackend(bg, cfg, "SMP", core.PoolBackend{}, core.CheckpointConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Graft a Messages list onto the final checkpoint (the one whose
	// messages a resume loads): structurally valid wire, semantically
	// foreign to SMP.
	files := trailFiles(t, dir)
	raw, err := os.ReadFile(files[len(files)-1])
	if err != nil {
		t.Fatal(err)
	}
	ck, err := wire.UnmarshalCheckpoint(raw)
	if err != nil {
		t.Fatal(err)
	}
	keys := full.Matches.SortedKeys()
	if len(keys) < 2 {
		t.Skip("needs at least two matches to build a message")
	}
	ck.Messages = [][]uint64{{uint64(keys[0]), uint64(keys[1])}}
	forged, err := ck.Marshal(wire.Binary)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[len(files)-1], forged, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunBackend(bg, cfg, "SMP", core.PoolBackend{},
		core.CheckpointConfig{Dir: dir, Resume: true}); err == nil {
		t.Error("resuming an SMP trail carrying maximal messages succeeded")
	}
}

// TestFreshRunClearsStaleTrail: a fresh (non-resume) checkpointed run
// in a directory holding another run's checkpoint removes it before its
// first round, so a kill in round 1 leaves nothing to resume from.
func TestFreshRunClearsStaleTrail(t *testing.T) {
	m, cover, _ := testmodel.PaperExample()
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
	dir := t.TempDir()
	if _, err := core.RunBackend(bg, cfg, "MMP", core.PoolBackend{}, core.CheckpointConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if readCheckpoint(t, dir) == nil {
		t.Fatal("the earlier run left no checkpoint")
	}
	// The one-worker pool reduces each job before it evaluates the next,
	// so a kill at round 1's first event ends the run inside round 1.
	ctx, cancel := context.WithCancel(bg)
	killed := cfg
	killed.Progress = func(core.ProgressEvent) { cancel() }
	if _, err := core.RunBackend(ctx, killed, "SMP", core.PoolBackend{}, core.CheckpointConfig{Dir: dir}); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run: %v, want context.Canceled", err)
	}
	if files := trailFiles(t, dir); len(files) != 0 {
		t.Fatalf("a fresh run killed in round 1 left %v", files)
	}
	full, err := core.RunBackend(bg, cfg, "SMP", core.PoolBackend{}, core.CheckpointConfig{Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := runOn(t, cfg, "SMP", core.PoolBackend{}); !full.Matches.Equal(want.Matches) {
		t.Error("resuming after the killed fresh run does not reproduce a cold run")
	}
}

// TestOlderRoundFilesUntouched: the round-NNNNNN.ckpt trail of an older
// build is never read, written or removed: a resume in its directory runs
// fresh to the uninterrupted result, and a fresh run, its checkpoints and
// a resume of those leave every round file byte-for-byte as it was.
func TestOlderRoundFilesUntouched(t *testing.T) {
	m, cover, _ := testmodel.PaperExample()
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
	dir := t.TempDir()
	old := map[string][]byte{
		"round-000001.ckpt": []byte("an older build's round 1"),
		"round-000002.ckpt": {0xff, 0x00, 0x01},
	}
	for name, data := range old {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := runOn(t, cfg, "SMP", core.PoolBackend{})
	for _, resume := range []bool{true, false, true} {
		res, err := core.RunBackend(bg, cfg, "SMP", core.PoolBackend{}, core.CheckpointConfig{Dir: dir, Resume: resume})
		if err != nil {
			t.Fatalf("resume=%v: %v", resume, err)
		}
		if !res.Matches.Equal(want.Matches) {
			t.Errorf("resume=%v: %d matches, the uninterrupted run has %d", resume, res.Matches.Len(), want.Matches.Len())
		}
		for name, data := range old {
			if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("resume=%v: %s was touched: %q, %v", resume, name, got, err)
			}
		}
	}
	if q, _ := filepath.Glob(filepath.Join(dir, "*.corrupt")); len(q) != 0 {
		t.Errorf("quarantined %v", q)
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
			_, err := core.RunBackend(ctx, cfg, scheme, b, core.CheckpointConfig{})
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
		_, err := core.RunBackend(ctx, cfg, "SMP", b, core.CheckpointConfig{})
		if err != context.DeadlineExceeded {
			t.Errorf("%s: want bare context.DeadlineExceeded, got %v (type %T)", name, err, err)
		}
		cancel()
	}
}
