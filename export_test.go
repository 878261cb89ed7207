package cem

import (
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
