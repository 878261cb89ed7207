package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/wire"
)

// CheckpointConfig enables round-boundary checkpointing of a
// backend-executed run. After every completed round the driver persists
// {round, evidence delta, next active set, outstanding maximal messages,
// visit counts, RunStats} to Dir as one wire.Checkpoint file
// (round-NNNNNN.ckpt), written atomically (temp file + rename) so a kill
// can never leave a torn record. Replaying the deltas of rounds 1..r
// rebuilds the evidence set exactly; everything else resumes from the
// latest record.
type CheckpointConfig struct {
	// Dir is the checkpoint directory; empty disables checkpointing. A
	// fresh (non-resume) run clears previous round files from Dir first.
	Dir string
	// Format selects the wire codec for new checkpoint files (default
	// compact binary). Resume accepts either format regardless.
	Format wire.Format
	// Resume continues a previous run from Dir instead of starting over.
	// An empty Dir resumes into a fresh run; a completed trail
	// reconstructs the final result without evaluating anything.
	Resume bool
	// Matcher labels the matcher producing the trail (e.g. its registry
	// name); it is stamped into every checkpoint and verified on resume,
	// so a trail cannot silently seed a different matcher's run. Empty
	// opts out of the check (anonymous matchers).
	Matcher string
}

const ckptPattern = "round-*.ckpt"

func ckptFile(round int) string { return fmt.Sprintf("round-%06d.ckpt", round) }

// checkpointer writes one durable record per completed round.
type checkpointer struct {
	dir     string
	format  wire.Format
	matcher string
}

// clear removes the round files of any previous run in the directory,
// creating it if needed.
func (c *checkpointer) clear() error {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return fmt.Errorf("core: checkpoint dir: %w", err)
	}
	stale, err := filepath.Glob(filepath.Join(c.dir, ckptPattern))
	if err != nil {
		return err
	}
	for _, f := range stale {
		if err := os.Remove(f); err != nil {
			return fmt.Errorf("core: clearing stale checkpoint: %w", err)
		}
	}
	return nil
}

// write persists the just-completed round. delta must be the round's
// evidence delta in ascending key order.
func (c *checkpointer) write(d *RoundDriver, delta []PairKey) error {
	ck := &wire.Checkpoint{
		Scheme:        d.plan.Scheme,
		Matcher:       c.matcher,
		Neighborhoods: d.plan.Config.Cover.Len(),
		Entities:      d.plan.Config.Cover.NumEntities,
		Round:         d.round,
		Done:          d.done,
		Delta:         make([]uint64, len(delta)),
		Active:        d.active,
		Visits:        d.visits,
		Stats:         statsToWire(&d.res.Stats),
	}
	for i, k := range delta {
		ck.Delta[i] = uint64(k)
	}
	if d.store != nil {
		for _, msg := range d.store.components() {
			g := make([]uint64, len(msg))
			for x, i := range msg {
				g[x] = uint64(d.store.pairs[i].Key())
			}
			ck.Messages = append(ck.Messages, g)
		}
	}
	b, err := ck.Marshal(c.format)
	if err != nil {
		return fmt.Errorf("core: encoding checkpoint round %d: %w", d.round, err)
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return fmt.Errorf("core: checkpoint dir: %w", err)
	}
	final := filepath.Join(c.dir, ckptFile(d.round))
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return fmt.Errorf("core: writing checkpoint round %d: %w", d.round, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("core: committing checkpoint round %d: %w", d.round, err)
	}
	return nil
}

// resumeState is a checkpoint trail decoded back into driver state.
type resumeState struct {
	evidence []PairKey // the trail's deltas, in round order
	visits   []int
	stats    RunStats
	messages [][]Pair
	active   []int32
	round    int
	done     bool
}

// loadCheckpointState reads and verifies a checkpoint trail: contiguous
// rounds 1..r, all fingerprinting the same run as plan (and as matcher,
// when both the trail and the caller carry a label). Returns nil when
// the directory holds no checkpoints (resume into a fresh run).
func loadCheckpointState(dir string, plan *RoundPlan, matcher string) (*resumeState, error) {
	files, err := filepath.Glob(filepath.Join(dir, ckptPattern))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, nil
	}
	sort.Strings(files)

	st := &resumeState{}
	var last *wire.Checkpoint
	for i, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, fmt.Errorf("core: reading checkpoint: %w", err)
		}
		ck, err := wire.UnmarshalCheckpoint(raw)
		if err != nil {
			return nil, fmt.Errorf("core: decoding %s: %w", filepath.Base(f), err)
		}
		if ck.Round != i+1 {
			return nil, fmt.Errorf("core: checkpoint trail not contiguous: %s carries round %d, want %d",
				filepath.Base(f), ck.Round, i+1)
		}
		if ck.Scheme != plan.Scheme || ck.Neighborhoods != plan.Config.Cover.Len() ||
			ck.Entities != plan.Config.Cover.NumEntities {
			return nil, fmt.Errorf("core: checkpoint %s belongs to a different run (scheme %s over %d neighborhoods/%d entities, resuming %s over %d/%d)",
				filepath.Base(f), ck.Scheme, ck.Neighborhoods, ck.Entities,
				plan.Scheme, plan.Config.Cover.Len(), plan.Config.Cover.NumEntities)
		}
		if ck.Matcher != "" && matcher != "" && ck.Matcher != matcher {
			return nil, fmt.Errorf("core: checkpoint %s was written by matcher %q, resuming with %q",
				filepath.Base(f), ck.Matcher, matcher)
		}
		if len(ck.Messages) > 0 && !plan.WithMessages {
			return nil, fmt.Errorf("core: checkpoint %s carries maximal messages but scheme %s exchanges none",
				filepath.Base(f), plan.Scheme)
		}
		for _, k := range ck.Delta {
			st.evidence = append(st.evidence, PairKey(k))
		}
		last = ck
	}

	st.round = last.Round
	st.done = last.Done
	st.active = last.Active
	st.visits = last.Visits
	st.stats = statsFromWire(&last.Stats)
	for _, g := range last.Messages {
		msg := make([]Pair, len(g))
		for i, k := range g {
			msg[i] = PairKey(k).Pair()
		}
		st.messages = append(st.messages, msg)
	}
	return st, nil
}

func statsToWire(s *RunStats) wire.Stats {
	return wire.Stats{
		Neighborhoods:   s.Neighborhoods,
		MatcherCalls:    s.MatcherCalls,
		Evaluations:     s.Evaluations,
		MaxRevisits:     s.MaxRevisits,
		MessagesSent:    s.MessagesSent,
		MaximalMessages: s.MaximalMessages,
		PromotedSets:    s.PromotedSets,
		ScoreChecks:     s.ScoreChecks,
		Skips:           s.Skips,
		ElapsedNS:       int64(s.Elapsed),
		MatcherTimeNS:   int64(s.MatcherTime),
		ActiveSizes:     s.ActiveSizes,
	}
}

func statsFromWire(s *wire.Stats) RunStats {
	return RunStats{
		Neighborhoods:   s.Neighborhoods,
		MatcherCalls:    s.MatcherCalls,
		Evaluations:     s.Evaluations,
		MaxRevisits:     s.MaxRevisits,
		MessagesSent:    s.MessagesSent,
		MaximalMessages: s.MaximalMessages,
		PromotedSets:    s.PromotedSets,
		ScoreChecks:     s.ScoreChecks,
		Skips:           s.Skips,
		Elapsed:         time.Duration(s.ElapsedNS),
		MatcherTime:     time.Duration(s.MatcherTimeNS),
		ActiveSizes:     s.ActiveSizes,
	}
}
