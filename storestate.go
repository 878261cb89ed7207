package cem

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/match"
)

// Store-backed state: a store's state blob is the one durable record of
// a run — M+, the outstanding maximal messages and the run's fingerprint.
// SaveState writes a completed pipeline result into it, a run under
// WithStateStore writes each round boundary into it, and Pipeline.Reopen
// reads it back: a completed state without running the matcher at all,
// the restart-without-replay path a disk-backed service uses, and a round
// boundary by continuing the rounds from it. Blocking is not saved: the
// cover is a deterministic function of the records, so Reopen builds it
// again.

// stateBlobName is the state blob both sides agree on.
const stateBlobName = "latest"

// SaveState persists res into s as the store's current state: one blob of
// kind match.KindSnapshot holding a wire.Checkpoint (the run's provenance,
// its pre-closure evidence, outstanding maximal messages, and seq as the
// commit sequence number) and nothing after it. The blob is the one
// durable copy of a completed run's state; SaveState is cheap relative to
// a run and safe to call once per commit. Replacing the blob is the
// store's commit point: when SaveState fails, the store's state (and so
// StateSeq) is still the previous one. The online service
// (internal/serve) calls it after a batch is acknowledged, beside the
// next batch: there the journal entry commits the batch, and the blob is
// the checkpoint a restart replays the journal from.
func SaveState(s match.Store, res *PipelineResult, seq int) error {
	if s == nil {
		return fmt.Errorf("cem: SaveState needs a store")
	}
	if res == nil || res.Result == nil || res.Experiment == nil {
		return fmt.Errorf("cem: SaveState needs a completed pipeline result")
	}
	if seq < 0 {
		return fmt.Errorf("cem: SaveState sequence %d is negative", seq)
	}
	if !slices.ContainsFunc([]Scheme{SchemeNoMP, SchemeSMP, SchemeMMP}, func(s Scheme) bool { return coreScheme(s) == res.Scheme }) {
		return fmt.Errorf("cem: SaveState: scheme %q results have no round structure to continue", res.Scheme)
	}
	h := core.Header(res.Scheme, res.Matcher, res.Experiment.Cover, seq)
	h.Done = true
	st := &core.State{Header: h, Evidence: res.evidence().SortedKeys(), Messages: res.Messages}
	data, err := st.Marshal()
	if err != nil {
		return fmt.Errorf("cem: encoding state snapshot: %w", err)
	}
	if err := s.Flush(); err != nil {
		return err
	}
	return s.SaveBlob(match.KindSnapshot, stateBlobName, data)
}

// openState reads, decodes and validates the state blob in s. A store
// with no saved state returns match.ErrBlobNotFound (wrapped). With
// setAside, a blob that does not decode is saved beside itself as
// latest.corrupt and reads as none (match.ErrBlobNotFound): the caller
// runs fresh, and the fresh run's first save replaces it.
func openState(s match.Store, setAside bool) (*core.State, error) {
	if s == nil {
		return nil, fmt.Errorf("cem: reading saved state needs a store")
	}
	data, err := s.OpenBlob(match.KindSnapshot, stateBlobName)
	if err != nil {
		return nil, fmt.Errorf("cem: reading state snapshot: %w", err)
	}
	st, err := core.DecodeState(data)
	switch {
	case err == nil:
		return st, nil
	case !setAside:
		return nil, fmt.Errorf("cem: state snapshot: %w", err)
	}
	if serr := s.SaveBlob(match.KindSnapshot, stateBlobName+".corrupt", data); serr != nil {
		return nil, fmt.Errorf("cem: setting aside a state snapshot that does not decode (%v): %w", err, serr)
	}
	return nil, fmt.Errorf("cem: state snapshot set aside as %s.corrupt (%v): %w", stateBlobName, err, match.ErrBlobNotFound)
}

// StateSeq reads the commit sequence number of the state snapshot
// SaveState last wrote into s, without rebuilding anything. A store with
// no saved snapshot returns match.ErrBlobNotFound (wrapped) — callers
// use this to decide how many journaled batches a Reopen would cover. A
// state that is not Done is an error: its header counts a run's rounds,
// not commits.
func StateSeq(s match.Store) (int, error) {
	st, err := openState(s, false)
	if err != nil {
		return 0, err
	}
	if !st.Header.Done {
		return 0, fmt.Errorf("cem: the store holds a run's state after round %d, not a committed state", st.Header.Round)
	}
	return st.Header.Round, nil
}

// Reopen restores the pipeline state persisted into s, returning the
// result and the saved commit sequence number. records must be the exact
// record stream the saved state was built over (a service keeps it in
// its journal). Blocking runs as in Run — the dataset, the index and the
// cover built from the records — and the saved state's scheme, matcher,
// entity count and set count must agree with the pipeline and the rebuilt
// cover (core.CheckHeader).
//
// A Done state — SaveState's, or a completed run's last round — reopens
// with the matcher NEVER invoked: the match set and the outstanding
// messages come from the snapshot. Run statistics are not persisted; the
// reopened result's Stats are zero apart from structural counts. A state
// that is not Done is a killed run's last round boundary: Reopen
// continues its rounds and lands on the output the uninterrupted run
// would have produced (consistency), saving each further round when the
// runner options include WithStateStore; its seq is 0. Either way the
// result carries the streaming state Update needs, so ingestion continues
// incrementally exactly as if the process had never died.
//
// A store with no saved state — none written, or only one that does not
// decode, which Reopen first sets aside as latest.corrupt — returns
// match.ErrBlobNotFound (wrapped): the caller decides whether that means
// "run fresh" or "corruption".
func (p *Pipeline) Reopen(ctx context.Context, records []Record, s match.Store) (*PipelineResult, int, error) {
	st, err := openState(s, true)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	index, exp, runner, labeled, err := p.block(ctx, records)
	if err != nil {
		return nil, 0, err
	}
	ck := &st.Header
	if err := core.CheckHeader(ck, coreScheme(p.scheme), p.matcher, exp.Cover); err != nil {
		return nil, 0, fmt.Errorf("cem: the pipeline over these records disagrees with the snapshot: %w", err)
	}
	out := &PipelineResult{Experiment: exp, BlockingTime: time.Since(start), index: index}
	if !ck.Done {
		start = time.Now()
		if out.Result, err = runner.run(ctx, p.scheme, st); err != nil {
			return nil, 0, err
		}
		out.MatchingTime = time.Since(start)
		return p.result(out, labeled), 0, nil
	}

	// Fabricate the engine result from the snapshot: evidence and
	// messages verbatim, no matcher involvement.
	rawRes := &core.Result{Scheme: ck.Scheme, Matches: core.NewPairSet(), Messages: st.Messages}
	rawRes.Stats.Neighborhoods = ck.Neighborhoods
	for _, k := range st.Evidence {
		rawRes.Matches.AddKey(k)
	}
	out.Result = runner.seal(rawRes)
	return p.result(out, labeled), ck.Round, nil
}
