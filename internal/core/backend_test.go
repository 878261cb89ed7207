package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
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
// AND deterministic statistics — for every shard count and every scheme,
// in both wire codecs; the one-worker pool, which reduces in order
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
				for _, format := range []wire.Format{wire.Binary, wire.JSON} {
					sharded := runOn(t, cfg, scheme, &emnet.Backend{Workers: k, Opts: emnet.Options{Format: format}})
					assertSameRun(t, fmt.Sprintf("trial %d %s k=%d fmt=%v", trial, scheme, k, format), sharded, pool)
				}
			}
		}
	}
}

// trailFiles returns the sorted round files of a checkpoint directory.
func trailFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "round-*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	return files
}

// TestCheckpointResumeAtEveryBoundary: a checkpointed run truncated
// after round r (exactly what a kill between rounds leaves on disk)
// must resume to the uninterrupted run's match set, with statistics that
// only grew past the checkpointed values — for every r and every scheme.
func TestCheckpointResumeAtEveryBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		m, cover := testmodel.Random(rng)
		cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
		for _, scheme := range []string{"SMP", "MMP"} {
			dir := t.TempDir()
			full, err := core.RunBackend(bg, cfg, scheme, core.PoolBackend{}, core.CheckpointConfig{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			files := trailFiles(t, dir)
			if len(files) == 0 {
				t.Fatalf("%s: no checkpoints written", scheme)
			}
			for r := 0; r < len(files); r++ {
				// Simulate a kill after round r: rounds r+1.. vanish.
				trunc := t.TempDir()
				var ckStats core.RunStats
				for i := 0; i < r; i++ {
					raw, err := os.ReadFile(files[i])
					if err != nil {
						t.Fatal(err)
					}
					if i == r-1 {
						w, err := wire.UnmarshalCheckpoint(raw)
						if err != nil {
							t.Fatal(err)
						}
						ckStats.Evaluations = w.Stats.Evaluations
						ckStats.MatcherCalls = w.Stats.MatcherCalls
						ckStats.MessagesSent = w.Stats.MessagesSent
					}
					if err := os.WriteFile(filepath.Join(trunc, filepath.Base(files[i])), raw, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				resumed, err := core.RunBackend(bg, cfg, scheme, &emnet.Backend{Workers: 2},
					core.CheckpointConfig{Dir: trunc, Resume: true})
				if err != nil {
					t.Fatalf("%s: resume after round %d: %v", scheme, r, err)
				}
				if !resumed.Matches.Equal(full.Matches) {
					t.Errorf("%s: resume after round %d diverges: %d vs %d matches",
						scheme, r, resumed.Matches.Len(), full.Matches.Len())
				}
				if resumed.Stats.Evaluations < ckStats.Evaluations ||
					resumed.Stats.MatcherCalls < ckStats.MatcherCalls ||
					resumed.Stats.MessagesSent < ckStats.MessagesSent {
					t.Errorf("%s: resume after round %d lost statistics: %v < checkpointed %v",
						scheme, r, resumed.Stats, ckStats)
				}
			}
		}
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

// TestFreshRunClearsStaleTrail: starting a non-resume checkpointed run
// in a dirty directory must not leave a mixed trail behind.
func TestFreshRunClearsStaleTrail(t *testing.T) {
	m, cover, _ := testmodel.PaperExample()
	cfg := core.Config{Cover: cover, Matcher: m, Relation: m.Relation()}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "round-000099.ckpt"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	full, err := core.RunBackend(bg, cfg, "SMP", core.PoolBackend{}, core.CheckpointConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	files := trailFiles(t, dir)
	for _, f := range files {
		if filepath.Base(f) == "round-000099.ckpt" {
			t.Fatal("stale checkpoint survived a fresh run")
		}
	}
	resumed, err := core.RunBackend(bg, cfg, "SMP", core.PoolBackend{},
		core.CheckpointConfig{Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Matches.Equal(full.Matches) {
		t.Error("trail left by a fresh run does not reproduce its result")
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
