package cem

import (
	"context"
	"errors"

	"repro/internal/canopy"
	"repro/internal/core"
	"repro/match"
)

// AffectedByDelta exposes the warm-start seed computation to the
// incremental differential tests, which hold it to the implementation it
// replaced.
var AffectedByDelta = affectedByDelta

// NewWithCover wires an experiment over a given cover instead of the one
// blocking builds, for the conformance matrix's cover-refinement rows.
func NewWithCover(d *match.Dataset, cover *core.Cover) (*Experiment, error) {
	return setup(d, DefaultOptions(), cover, nil)
}

// RunFrom runs a round scheme from a State — a warm seed, as
// Pipeline.Update does, or a saved round boundary — for the checks of the
// theorem checker.
func RunFrom(ctx context.Context, r *Runner, s Scheme, from *core.State) (*Result, error) {
	return r.run(ctx, s, from)
}

// Continue continues a round scheme over the runner's experiment from the
// state st holds, as Pipeline.Reopen continues one that is not Done: a
// store holding none — or only one that does not decode, set aside first
// — runs cold, and a state of another run is refused.
func Continue(ctx context.Context, r *Runner, s Scheme, st match.Store) (*Result, error) {
	from, err := openState(st, true)
	if errors.Is(err, match.ErrBlobNotFound) {
		return r.run(ctx, s, nil)
	}
	if err != nil {
		return nil, err
	}
	if err := core.CheckHeader(&from.Header, coreScheme(s), r.name, r.exp.Cover); err != nil {
		return nil, err
	}
	return r.run(ctx, s, from)
}

// LookupMatcher returns a registered matcher's factory, for the checker's
// pair-form twins.
var LookupMatcher = lookupMatcher

// CoreScheme is the engine's name of a round scheme.
var CoreScheme = coreScheme

// IndexOf returns a pipeline result's blocking index, for the checks that
// a Run's index is the one its Updates advance and its state blob saves.
func IndexOf(r *PipelineResult) *canopy.Index { return r.index }
