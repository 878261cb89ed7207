package lang

import (
	"repro/internal/bib"
	"repro/internal/core"
	"repro/internal/rules"
	"repro/internal/similarity"
)

// NewMatcher grounds the plan over a dataset, its candidate table and the
// level column blocking assigned (in table order). Every program grounds
// to the one rules engine: level and seed clauses are evaluated here, once
// per candidate over the record's typed fields, and reach the engine as
// columns over the same table — the levels (replacing blocking's) and the
// seeds (see rules/hardseed_doc.go). A plain program — no level clauses,
// no seeds — is exactly rules.Ground(d, t, levels, nil, plan.Rules), the
// matcher a handwritten []rules.Rule program would produce. Seeds are
// evaluated over candidate pairs only, so the matcher keeps the
// candidate-closure contract: output ⊆ candidates.
func (pl *Plan) NewMatcher(d *bib.Dataset, t *core.CandidateTable, levels []similarity.Level) (*rules.Matcher, error) {
	if !pl.Relevels() && !pl.Seeded() {
		return rules.Ground(d, t, levels, nil, pl.Rules)
	}
	levels, seeds := pl.ground(d, t, levels)
	return rules.Ground(d, t, levels, seeds, pl.Rules)
}

// ground evaluates the level and seed clauses on every candidate of the
// table and returns the two columns; the level column is the one handed in
// when the program has no level clauses. A record's key is split and
// normalized on its first candidate and read by all the others.
func (pl *Plan) ground(d *bib.Dataset, t *core.CandidateTable, levels []similarity.Level) ([]similarity.Level, []rules.Seed) {
	// SplitFields never returns nil, so a nil raw marks a key not read yet.
	recs := make([]record, d.NumRefs())
	recordOf := func(e core.EntityID) *record {
		if recs[e].raw == nil {
			recs[e] = pl.newRecord(d.Refs[e].Name)
		}
		return &recs[e]
	}
	seeds := make([]rules.Seed, t.Len())
	relevel := pl.Relevels()
	if relevel {
		levels = make([]similarity.Level, t.Len())
	}
	for id, p := range t.Pairs() {
		a, b := recordOf(p.A), recordOf(p.B)
		if relevel {
			levels[id] = pl.levelOf(a, b)
		}
		seeds[id] = pl.seedOf(a, b)
	}
	return levels, seeds
}
