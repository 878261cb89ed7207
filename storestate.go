package cem

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bib"
	"repro/internal/canopy"
	"repro/internal/core"
	"repro/internal/wire"
	"repro/match"
)

// Store-backed state: SaveState persists a completed pipeline result
// into a Store as one blob — the snapshot (M+ and the outstanding maximal
// messages) followed by the blocking postings — and Pipeline.Reopen
// restores the result from the store without running the matcher at
// all — the restart-without-replay path a disk-backed service uses.

// stateBlobName is the state blob both sides agree on.
const stateBlobName = "latest"

// SaveState persists res into s as the store's current state: one blob of
// kind match.KindSnapshot holding a wire.Checkpoint (the run's provenance,
// its pre-closure evidence, outstanding maximal messages, and seq as the
// commit sequence number) followed — when res carries streaming blocking
// state — by the postings section, the serialized delta index. The blob
// is the one durable copy of a completed run's state; SaveState is cheap
// relative to a run and safe to call once per commit. Replacing the blob
// is the commit point: when SaveState fails, the store's state (and so
// StateSeq) is still the previous one.
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
	if res.index != nil {
		data = res.index.Save(data)
	}
	if err := s.Flush(); err != nil {
		return err
	}
	return s.SaveBlob(match.KindSnapshot, stateBlobName, data)
}

// openState reads, decodes and validates the state blob SaveState last
// wrote into s, returning the snapshot and the postings section after it
// (empty when the blob has none: a result without streaming blocking
// state, or a bare snapshot an older build wrote beside a separate
// postings blob, which is never read). A store with no saved state
// returns match.ErrBlobNotFound (wrapped).
func openState(s match.Store) (*core.State, []byte, error) {
	if s == nil {
		return nil, nil, fmt.Errorf("cem: reading saved state needs a store")
	}
	data, err := s.OpenBlob(match.KindSnapshot, stateBlobName)
	if err != nil {
		return nil, nil, fmt.Errorf("cem: reading state snapshot: %w", err)
	}
	st, postings, err := core.DecodeState(data)
	if err != nil {
		return nil, nil, fmt.Errorf("cem: state snapshot: %w", err)
	}
	return st, postings, nil
}

// StateSeq reads the commit sequence number of the state snapshot
// SaveState last wrote into s, without rebuilding anything. A store with
// no saved snapshot returns match.ErrBlobNotFound (wrapped) — callers
// use this to decide how many journaled batches a Reopen would cover.
func StateSeq(s match.Store) (int, error) {
	st, _, err := openState(s)
	if err != nil {
		return 0, err
	}
	return st.Header.Round, nil
}

// Reopen restores the pipeline state SaveState persisted into s,
// returning the rebuilt result and the saved commit sequence number.
// records must be the exact record stream the saved state was built
// over (a service keeps it in its journal); the matcher is NEVER
// invoked — the match set comes from the state blob's snapshot, and the
// blocking state from its postings section when present (falling back to
// building the index over the records, which is blocking-only work). The
// returned result carries the streaming state Update needs, so ingestion
// continues incrementally exactly as if the process had never died. Run statistics are not persisted; the
// reopened result's Stats are zero apart from structural counts.
//
// A store with no saved state returns match.ErrBlobNotFound
// (wrapped): the caller decides whether that means "fresh store" or
// "corruption".
func (p *Pipeline) Reopen(ctx context.Context, records []Record, s match.Store) (*PipelineResult, int, error) {
	st, postings, err := openState(s)
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
	raw, labeled := toBibRecords(records)
	d, err := bib.DatasetFromRecords(p.name, raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cem: reopening state: %w", err)
	}
	index, err := p.reopenIndex(ctx, d, postings)
	if err != nil {
		return nil, 0, err
	}
	cover := index.Cover()
	if cover == nil || cover.Len() != ck.Neighborhoods || cover.NumEntities != ck.Entities {
		return nil, 0, fmt.Errorf("cem: reopened blocking state (%d sets) disagrees with the snapshot (%d sets) — were the records the saved stream?",
			cover.Len(), ck.Neighborhoods)
	}

	exp, runner, err := p.build(d, cover, nil)
	if err != nil {
		return nil, 0, err
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

// reopenIndex restores the blocking state of d: from the state blob's
// postings section when it has one consistent with this pipeline, otherwise
// by building the index over d as a cold run does.
func (p *Pipeline) reopenIndex(ctx context.Context, d *bib.Dataset, postings []byte) (*canopy.Index, error) {
	if len(postings) > 0 {
		ix, err := canopy.LoadIndex(postings, d, p.shards)
		if err == nil && ix.Config() == p.blocking && ix.Cover() != nil {
			return ix, nil
		}
		// An older-format or foreign postings section is a cache miss, not
		// an error.
	}
	return canopy.BuildIndex(ctx, d, p.blocking, p.shards)
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
