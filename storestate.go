package cem

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
	"repro/match"
)

// Store-backed state: SaveState persists a completed pipeline result
// into a Store as one blob — the snapshot of M+ and the outstanding
// maximal messages — and Pipeline.Reopen restores the result from the
// store without running the matcher at all — the restart-without-replay
// path a disk-backed service uses. Blocking is not saved: the cover is a
// deterministic function of the records, so Reopen builds it again.

// stateBlobName is the state blob both sides agree on.
const stateBlobName = "latest"

// SaveState persists res into s as the store's current state: one blob of
// kind match.KindSnapshot holding a wire.Checkpoint (the run's provenance,
// its pre-closure evidence, outstanding maximal messages, and seq as the
// commit sequence number) and nothing after it. The blob is the one
// durable copy of a completed run's state; SaveState is cheap relative to
// a run and safe to call once per commit. Replacing the blob is the commit
// point: when SaveState fails, the store's state (and so StateSeq) is
// still the previous one.
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
	if schemeFromCore(res.Scheme) == "" {
		return fmt.Errorf("cem: SaveState: scheme %q results have no round structure to continue", res.Scheme)
	}
	cover := res.Experiment.Cover
	st := &core.State{Evidence: res.evidence().SortedKeys(), Messages: res.Messages, Header: wire.Checkpoint{
		Scheme:        res.Scheme,
		Matcher:       res.Matcher,
		Neighborhoods: cover.Len(),
		Entities:      cover.NumEntities,
		Round:         seq,
		Done:          true,
		Visits:        make([]int, cover.Len()),
	}}
	data, err := st.Marshal()
	if err != nil {
		return fmt.Errorf("cem: encoding state snapshot: %w", err)
	}
	if err := s.Flush(); err != nil {
		return err
	}
	return s.SaveBlob(match.KindSnapshot, stateBlobName, data)
}

// openState reads, decodes and validates the state blob SaveState last
// wrote into s. A store with no saved state returns match.ErrBlobNotFound
// (wrapped).
func openState(s match.Store) (*core.State, error) {
	if s == nil {
		return nil, fmt.Errorf("cem: reading saved state needs a store")
	}
	data, err := s.OpenBlob(match.KindSnapshot, stateBlobName)
	if err != nil {
		return nil, fmt.Errorf("cem: reading state snapshot: %w", err)
	}
	st, err := core.DecodeState(data)
	if err != nil {
		return nil, fmt.Errorf("cem: state snapshot: %w", err)
	}
	return st, nil
}

// StateSeq reads the commit sequence number of the state snapshot
// SaveState last wrote into s, without rebuilding anything. A store with
// no saved snapshot returns match.ErrBlobNotFound (wrapped) — callers
// use this to decide how many journaled batches a Reopen would cover.
func StateSeq(s match.Store) (int, error) {
	st, err := openState(s)
	if err != nil {
		return 0, err
	}
	return st.Header.Round, nil
}

// Reopen restores the pipeline state SaveState persisted into s,
// returning the rebuilt result and the saved commit sequence number.
// records must be the exact record stream the saved state was built
// over (a service keeps it in its journal). Blocking runs as in Run — the
// dataset, the index and the cover built from the records — and the
// matcher is NEVER invoked: the match set and the outstanding messages
// come from the snapshot, whose scheme, matcher, entity count and set count
// must agree with the pipeline and the rebuilt cover. The returned result
// carries the streaming state Update needs, so ingestion continues
// incrementally exactly as if the process had never died. Run statistics
// are not persisted; the reopened result's Stats are zero apart from
// structural counts.
//
// A store with no saved state returns match.ErrBlobNotFound
// (wrapped): the caller decides whether that means "fresh store" or
// "corruption".
func (p *Pipeline) Reopen(ctx context.Context, records []Record, s match.Store) (*PipelineResult, int, error) {
	st, err := openState(s)
	if err != nil {
		return nil, 0, err
	}
	ck := &st.Header
	if got := schemeFromCore(ck.Scheme); got != p.scheme {
		return nil, 0, fmt.Errorf("cem: store state was saved from scheme %q, pipeline runs %q", ck.Scheme, p.scheme)
	}
	if ck.Matcher != p.matcher {
		return nil, 0, fmt.Errorf("cem: store state was saved by matcher %q, pipeline runs %q", ck.Matcher, p.matcher)
	}
	if ck.Entities != len(records) {
		return nil, 0, fmt.Errorf("cem: store state spans %d entities but %d records were supplied", ck.Entities, len(records))
	}

	start := time.Now()
	index, exp, runner, labeled, err := p.block(ctx, records)
	if err != nil {
		return nil, 0, err
	}
	cover := exp.Cover
	if cover.Len() != ck.Neighborhoods {
		return nil, 0, fmt.Errorf("cem: reopened blocking state (%d sets) disagrees with the snapshot (%d sets) — were the records the saved stream?",
			cover.Len(), ck.Neighborhoods)
	}
	blockingTime := time.Since(start)

	// Fabricate the engine result from the snapshot: evidence and
	// messages verbatim, no matcher involvement.
	rawRes := &core.Result{Scheme: ck.Scheme, Matches: core.NewPairSet(), Messages: st.Messages}
	rawRes.Stats.Neighborhoods = cover.Len()
	for _, k := range st.Evidence {
		rawRes.Matches.AddKey(k)
	}
	return p.result(&PipelineResult{
		Result:       runner.seal(rawRes),
		Experiment:   exp,
		BlockingTime: blockingTime,
		index:        index,
	}, labeled), ck.Round, nil
}

// schemeFromCore maps the engine's canonical scheme name back to the
// public constant ("" for whole-set schemes, which save no state).
func schemeFromCore(s string) Scheme {
	switch s {
	case "NO-MP":
		return SchemeNoMP
	case "SMP":
		return SchemeSMP
	case "MMP":
		return SchemeMMP
	}
	return ""
}
