package lang

import (
	"repro/internal/bib"
	"repro/internal/core"
	"repro/internal/rules"
	"repro/internal/similarity"
)

// NewMatcher grounds the plan over a dataset and the blocking stage's
// candidate pairs. Every program grounds to the one rules engine: level
// and seed clauses are evaluated here, once per candidate over the
// record's typed fields, and reach the engine as constants of the
// candidate — its Level (replacing the one blocking assigned) and its
// Seed (see rules/hardseed_doc.go). A plain program — no level clauses,
// no seeds — is exactly rules.New(d, cands, plan.Rules), the matcher a
// handwritten []rules.Rule program would produce. Seeds are evaluated
// over candidate pairs only, so the matcher keeps the candidate-closure
// contract: output ⊆ candidates.
func (pl *Plan) NewMatcher(d *bib.Dataset, cands []rules.Candidate) (*rules.Matcher, error) {
	if !pl.Relevels() && !pl.Seeded() {
		return rules.New(d, cands, pl.Rules)
	}
	// SplitFields never returns nil, so nil marks a key not split yet. An
	// endpoint that is no reference has no fields here; rules.New rejects
	// its pair.
	split := make([][]string, d.NumRefs())
	fieldsOf := func(e core.EntityID) []string {
		if e < 0 || int(e) >= len(split) {
			return nil
		}
		if split[e] == nil {
			split[e] = similarity.SplitFields(d.Refs[e].Name)
		}
		return split[e]
	}
	ground := make([]rules.Candidate, len(cands))
	for i, c := range cands {
		fa, fb := fieldsOf(c.Pair.A), fieldsOf(c.Pair.B)
		if pl.Relevels() {
			c.Level = pl.levelOfFields(fa, fb)
		}
		c.Seed |= pl.seedOfFields(fa, fb)
		ground[i] = c
	}
	return rules.New(d, ground, pl.Rules)
}
