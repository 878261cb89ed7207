package lang

import (
	"repro/internal/bib"
	"repro/internal/core"
	"repro/internal/rules"
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
	return rules.New(d, pl.ground(d, cands), pl.Rules)
}

// ground evaluates the level and seed clauses on every candidate. A
// record's key is split and normalized on its first candidate and read by
// all the others. An endpoint that is no reference has no fields here;
// rules.New rejects its pair.
func (pl *Plan) ground(d *bib.Dataset, cands []rules.Candidate) []rules.Candidate {
	// SplitFields never returns nil, so a nil raw marks a key not read yet.
	recs := make([]record, d.NumRefs())
	var noFields record
	recordOf := func(e core.EntityID) *record {
		if e < 0 || int(e) >= len(recs) {
			return &noFields
		}
		if recs[e].raw == nil {
			recs[e] = pl.newRecord(d.Refs[e].Name)
		}
		return &recs[e]
	}
	ground := make([]rules.Candidate, len(cands))
	for i, c := range cands {
		a, b := recordOf(c.Pair.A), recordOf(c.Pair.B)
		if pl.Relevels() {
			c.Level = pl.levelOf(a, b)
		}
		c.Seed |= pl.seedOf(a, b)
		ground[i] = c
	}
	return ground
}
