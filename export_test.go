package cem

// AffectedByDelta exposes the warm-start seed computation to the
// incremental differential tests, which hold it to the implementation it
// replaced.
var AffectedByDelta = affectedByDelta
