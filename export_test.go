package cem

import (
	"context"

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

// RunWarm runs a round scheme from a warm seed, as Pipeline.Update does,
// for the evidence-contract checks of the theorem checker.
func RunWarm(ctx context.Context, r *Runner, s Scheme, warm *core.WarmStart) (*Result, error) {
	return r.run(ctx, s, warm, false)
}

// LookupMatcher returns a registered matcher's factory, for the checker's
// pair-form twins.
var LookupMatcher = lookupMatcher

// CoreScheme is the engine's name of a round scheme.
var CoreScheme = coreScheme

// IndexOf returns a pipeline result's blocking index, for the checks that
// a Run's index is the one its Updates advance and its state blob saves.
func IndexOf(r *PipelineResult) *canopy.Index { return r.index }
