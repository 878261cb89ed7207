package cem

import (
	"fmt"

	"repro/match"
)

// Snapshot is the warm-start seed of an incremental continuation: a
// completed run's accumulated evidence and outstanding maximal messages,
// fingerprinted with the run's provenance — the same payload a PR-4
// checkpoint record carries for a round boundary, captured here at the
// run's end so that a later Runner.RunFrom (over a grown experiment) can
// pick up where the run left off instead of starting cold.
type Snapshot struct {
	// Scheme is the scheme that produced the snapshot; RunFrom refuses
	// to continue a different one. Empty opts out of the check.
	Scheme Scheme
	// Matcher is the registry name of the producing matcher; verified by
	// RunFrom like the checkpoint trail's matcher stamp. Empty opts out.
	Matcher string
	// Neighborhoods, Entities and Candidates fingerprint the experiment
	// the snapshot was taken over. A continuation may run over a *grown*
	// one (entity ids are stable under append, and a cover that only grew
	// keeps every candidate pair) but never one with fewer entities or
	// candidates; a grown cover may hold fewer neighborhoods, one having
	// swallowed others. Zero Candidates opts out of its check.
	Neighborhoods int
	Entities      int
	Candidates    int
	// Evidence is the run's final match set as packed pair keys — the
	// committed V+ a continuation starts from.
	Evidence []match.PairKey
	// Messages are the run's outstanding (never promoted) maximal
	// messages; non-nil only for MMP snapshots. A later delta's evidence
	// may still promote them, so they ride along.
	Messages [][]match.Pair
}

// Snapshot captures a completed run of this experiment as a warm-start
// seed. For closed results (WithTransitiveClosure) the seed is the raw
// pre-closure match set: internal evidence is always unclosed, and the
// continuation re-applies closure at its own end.
func (e *Experiment) Snapshot(res *Result) (*Snapshot, error) {
	if res == nil || res.Result == nil {
		return nil, fmt.Errorf("cem: cannot snapshot a nil result")
	}
	if schemeFromCore(res.Scheme) == "" {
		return nil, fmt.Errorf("cem: scheme %q results cannot seed a continuation (no round structure)", res.Scheme)
	}
	matches := res.Matches
	if res.preClosure != nil {
		matches = res.preClosure
	}
	snap := &Snapshot{
		Scheme:        schemeFromCore(res.Scheme),
		Matcher:       res.Matcher,
		Neighborhoods: e.Cover.Len(),
		Entities:      e.Cover.NumEntities,
		Candidates:    e.Table.Len(),
		Evidence:      matches.SortedKeys(),
	}
	for _, msg := range res.Messages {
		snap.Messages = append(snap.Messages, append([]match.Pair(nil), msg...))
	}
	return snap, nil
}

// schemeFromCore maps the engine's canonical scheme name back to the
// public constant ("" for whole-set schemes, which never snapshot).
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
