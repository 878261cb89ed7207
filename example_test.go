package cem_test

import (
	"context"
	"fmt"
	"log"
	"runtime"

	cem "repro"
	"repro/match"
)

// ExampleNew demonstrates the standard pipeline: generate a corpus,
// wire an experiment, run maximal message passing through a Runner, and
// evaluate.
func ExampleNew() {
	dataset := cem.NewDataset(cem.DBLP, 0.2, 7)
	exp, err := cem.New(dataset)
	if err != nil {
		log.Fatal(err)
	}
	runner, err := exp.Runner(cem.MatcherMLN)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	res, err := runner.Run(ctx, cem.SchemeMMP)
	if err != nil {
		log.Fatal(err)
	}
	full, err := runner.Run(ctx, cem.SchemeFull)
	if err != nil {
		log.Fatal(err)
	}
	// MMP reproduces the (normally infeasible) full run exactly.
	fmt.Println("mmp equals full:", res.Matches.Equal(full.Matches))
	// Output:
	// mmp equals full: true
}

// ExampleRunner_Run shows the scheme progression of the paper's §2.2:
// more message passing never loses matches. Parallelism does not change
// any output (consistency, Theorems 2 and 4).
func ExampleRunner_Run() {
	exp, err := cem.New(cem.NewDataset(cem.DBLP, 0.2, 7))
	if err != nil {
		log.Fatal(err)
	}
	runner, err := exp.Runner(cem.MatcherMLN,
		cem.WithParallelism(runtime.NumCPU()))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	nomp, _ := runner.Run(ctx, cem.SchemeNoMP)
	smp, _ := runner.Run(ctx, cem.SchemeSMP)
	mmp, _ := runner.Run(ctx, cem.SchemeMMP)
	fmt.Println("nomp ⊆ smp:", nomp.Matches.Subset(smp.Matches))
	fmt.Println("smp ⊆ mmp:", smp.Matches.Subset(mmp.Matches))
	// Output:
	// nomp ⊆ smp: true
	// smp ⊆ mmp: true
}

// ExamplePipeline_Run goes from raw records to matches in one call: no
// datasets, no covers, no internal packages. Records (a key to match on,
// an optional relational group, an optional gold label) go in; the
// pipeline blocks them into canopy neighborhoods, runs a scheme with a
// registered matcher and, when every record is labeled, scores the
// result pairwise and B-cubed.
func ExamplePipeline_Run() {
	// Raw records synthesized in the paper's DBLP regime; any []cem.Record
	// works. The cover is identical for every shard count.
	records, err := cem.GenerateRecords(cem.DBLP, 0.3, 7)
	if err != nil {
		log.Fatal(err)
	}
	pipe, err := cem.NewPipeline(
		cem.WithMatcher(cem.MatcherMLN),
		cem.WithScheme(cem.SchemeSMP),
		cem.WithShards(2),
		cem.WithRunnerOptions(cem.WithParallelism(1)),
	)
	if err != nil {
		log.Fatal(err)
	}
	res, err := pipe.Run(context.Background(), records)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d records -> %d matches, labeled: %v\n", res.Records, res.Matches.Len(), res.Labeled)

	// An unlabeled corpus runs the same way, without metrics: two papers
	// by the same trio, once with full names and once abbreviated. No
	// pair is matchable on its own; only the jointly supporting clique of
	// all three is, which is what maximal message passing recovers
	// (Figure 2 of the paper).
	tiny := []cem.Record{
		cem.BasicRecord{Key: "Vibhor Rastogi", Group: 1, Gold: -1},
		cem.BasicRecord{Key: "Nilesh Dalvi", Group: 1, Gold: -1},
		cem.BasicRecord{Key: "Minos Garofalakis", Group: 1, Gold: -1},
		cem.BasicRecord{Key: "V. Rastogi", Group: 2, Gold: -1},
		cem.BasicRecord{Key: "N. Dalvi", Group: 2, Gold: -1},
		cem.BasicRecord{Key: "M. Garofalakis", Group: 2, Gold: -1},
	}
	mmp, err := cem.NewPipeline(cem.WithScheme(cem.SchemeMMP),
		cem.WithRunnerOptions(cem.WithParallelism(1)))
	if err != nil {
		log.Fatal(err)
	}
	tinyRes, err := mmp.Run(context.Background(), tiny)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d records -> %d matches, labeled: %v\n", tinyRes.Records, tinyRes.Matches.Len(), tinyRes.Labeled)
	for _, p := range tinyRes.Matches.Sorted() {
		fmt.Printf("%s == %s\n", tiny[p.A].RecordKey(), tiny[p.B].RecordKey())
	}
	// Output:
	// 572 records -> 664 matches, labeled: true
	// 6 records -> 3 matches, labeled: false
	// Vibhor Rastogi == V. Rastogi
	// Nilesh Dalvi == N. Dalvi
	// Minos Garofalakis == M. Garofalakis
}

// ExamplePipeline_Update matches a live record stream incrementally.
// Update folds each batch into the previous result: only the new records
// are scored against the blocking index, prior matches become committed
// evidence, and only the neighborhoods the batch touched are re-run. The
// final state is identical to a cold run over everything.
func ExamplePipeline_Update() {
	records, err := cem.GenerateRecords(cem.DBLP, 0.25, 42)
	if err != nil {
		log.Fatal(err)
	}
	pipe, err := cem.NewPipeline(cem.WithScheme(cem.SchemeSMP),
		cem.WithRunnerOptions(cem.WithParallelism(1)))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	cold, err := pipe.Run(ctx, records)
	if err != nil {
		log.Fatal(err)
	}

	// One base load, then a trickle of small batches.
	n := len(records)
	var state *cem.PipelineResult
	lo := 0
	for _, hi := range []int{n * 6 / 10, n * 7 / 10, n * 8 / 10, n * 9 / 10, n} {
		if state, err = pipe.Update(ctx, state, records[lo:hi]); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("+%d records -> %d matches, warm: %v\n", hi-lo, state.Matches.Len(), state.WarmStarted)
		lo = hi
	}
	fmt.Println("identical to the cold run:", state.Matches.Equal(cold.Matches))
	// Output:
	// +297 records -> 275 matches, warm: false
	// +50 records -> 339 matches, warm: true
	// +49 records -> 444 matches, warm: true
	// +50 records -> 515 matches, warm: true
	// +50 records -> 613 matches, warm: true
	// identical to the cold run: true
}

// coMatcher is a third-party Type-I collective matcher written against
// the public cem and match packages only: a pair matches when its name
// similarity is strong, or when enough of its coauthor pairs are matched
// (medium needs one, weak two). Evidence only adds matches (monotone) and
// re-running on its own output changes nothing (idempotent), so the
// framework's soundness and consistency guarantees apply.
type coMatcher struct {
	level    map[match.Pair]match.Level
	partners map[match.Pair][]match.Pair // candidate pairs of the two references' coauthors
}

// newCoMatcher grounds a coMatcher over an experiment's candidates.
func newCoMatcher(mc cem.MatcherContext) (match.Matcher, error) {
	m := &coMatcher{
		level:    make(map[match.Pair]match.Level, len(mc.Candidates)),
		partners: make(map[match.Pair][]match.Pair, len(mc.Candidates)),
	}
	for _, c := range mc.Candidates {
		m.level[c.Pair] = c.Level
	}
	co := mc.Dataset.Coauthor()
	for _, c := range mc.Candidates {
		for _, a := range co.Neighbors(c.Pair.A) {
			for _, b := range co.Neighbors(c.Pair.B) {
				if p := match.MakePair(a, b); a != b && m.level[p] != match.LevelNone {
					m.partners[c.Pair] = append(m.partners[c.Pair], p)
				}
			}
		}
	}
	return m, nil
}

// Candidates implements match.Matcher.
func (m *coMatcher) Candidates(entities []match.EntityID) []match.Pair {
	in := make(map[match.EntityID]bool, len(entities))
	for _, e := range entities {
		in[e] = true
	}
	var out []match.Pair
	for p := range m.level {
		if in[p.A] && in[p.B] {
			out = append(out, p)
		}
	}
	return out
}

// Match implements match.Matcher: the rules applied to a fixpoint over
// the in-scope candidates, seeded by the positive evidence.
func (m *coMatcher) Match(entities []match.EntityID, pos, neg match.PairSet) match.PairSet {
	need := map[match.Level]int{match.LevelStrong: 0, match.LevelMedium: 1, match.LevelWeak: 2}
	scope := m.Candidates(entities)
	out := match.NewPairSet()
	for _, p := range scope {
		if pos.Has(p) && !neg.Has(p) {
			out.Add(p)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, p := range scope {
			if out.Has(p) || neg.Has(p) {
				continue
			}
			support := 0
			for _, q := range m.partners[p] {
				if out.Has(q) || pos.Has(q) {
					support++
				}
			}
			if support >= need[m.level[p]] {
				out.Add(p)
				changed = true
			}
		}
	}
	return out
}

// Registration is global and happens once, typically in the matcher's
// own package init.
func init() {
	cem.RegisterMatcher("coauthor-support", newCoMatcher)
}

// ExampleRegisterMatcher scales a black-box matcher the engine has never
// seen: the coauthor-support matcher above, registered by name, runs
// under NO-MP, SMP and FULL like the built-ins, and SMP over the total
// cover reproduces the FULL run (Appendix C).
func ExampleRegisterMatcher() {
	exp, err := cem.New(cem.NewDataset(cem.HEPTH, 0.3, 13))
	if err != nil {
		log.Fatal(err)
	}
	runner, err := exp.Runner("coauthor-support", cem.WithParallelism(1))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	got := map[cem.Scheme]*cem.Result{}
	for _, s := range []cem.Scheme{cem.SchemeNoMP, cem.SchemeSMP, cem.SchemeFull} {
		if got[s], err = runner.Run(ctx, s); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %d matches\n", s, got[s].Matches.Len())
	}
	fmt.Println("SMP equals FULL:", got[cem.SchemeSMP].Matches.Equal(got[cem.SchemeFull].Matches))
	// Output:
	// nomp: 296 matches
	// smp: 300 matches
	// full: 300 matches
	// SMP equals FULL: true
}
