package cem_test

// Golden-baseline regression tests: the exact match sets produced on the
// HEPTH and DBLP seed corpora, per scheme × matcher, are pinned in
// testdata/golden/. Any change to blocking, candidate generation, the
// matchers or the message-passing schemes that shifts a single pair
// fails here. This file pins the default runner on every scheme (FULL
// and UB included); conformance_test.go holds every other execution to
// the same fixtures.
//
// To refresh the fixtures after an INTENDED behavior change:
//
//	go test -run TestGoldenMatchSets -update
//
// then review the fixture diff like any other code change.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	cem "repro"
	"repro/internal/serve"
	"repro/match"
)

var updateGolden = flag.Bool("update", false, "rewrite golden match-set fixtures")

// goldenSeeds pins the corpora: the same scale/seed the identity and
// benchmark tests use.
var goldenSeeds = []corpus{{cem.HEPTH, 0.25, 42}, {cem.DBLP, 0.25, 42}}

// goldenMatrix lists every scheme each built-in matcher supports (MMP
// needs a Type-II matcher, UB a conditional decider — MLN only).
var goldenMatrix = map[string][]cem.Scheme{
	cem.MatcherMLN:   {cem.SchemeNoMP, cem.SchemeSMP, cem.SchemeMMP, cem.SchemeFull, cem.SchemeUB},
	cem.MatcherRules: {cem.SchemeNoMP, cem.SchemeSMP, cem.SchemeFull},
}

// renderMatches serializes a result's match set in canonical fixture
// form.
func renderMatches(res *cem.Result) string { return renderPairs(res.Matches) }

// renderPairs is the canonical fixture form: one "a b" pair per line,
// sorted, with a count header for readable diffs.
func renderPairs(matches match.PairSet) string { return serve.RenderMatches(matches) }

func TestGoldenMatchSets(t *testing.T) {
	for _, ds := range goldenSeeds {
		exp, err := cem.New(cem.NewDataset(ds.kind, ds.scale, ds.seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, matcher := range []string{cem.MatcherMLN, cem.MatcherRules} {
			runner, err := exp.Runner(matcher)
			if err != nil {
				t.Fatal(err)
			}
			for _, scheme := range goldenMatrix[matcher] {
				name := fmt.Sprintf("%s-%s-%s", ds.kind, matcher, scheme)
				t.Run(name, func(t *testing.T) {
					res, err := runner.Run(context.Background(), scheme)
					if err != nil {
						t.Fatal(err)
					}
					got := renderMatches(res)
					path := filepath.Join("testdata", "golden", name+".golden")
					if *updateGolden {
						if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
							t.Fatal(err)
						}
						if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
							t.Fatal(err)
						}
						return
					}
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatalf("missing fixture %s (run `go test -run TestGoldenMatchSets -update`): %v", path, err)
					}
					if got != string(want) {
						t.Errorf("match set diverges from %s\ngot:  %s\nwant: %s\n(re-run with -update if the change is intended)",
							path, firstDiff(got, string(want)), path)
					}
				})
			}
		}
	}
}

// firstDiff locates the first differing line for a readable failure.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: %q (fixture has %q)", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("length %d vs fixture %d lines", len(g), len(w))
}

// TestGoldenPipelineAgreesWithClassicPath: the records→pipeline path
// must land on the exact same fixtures as the dataset→Experiment path —
// ingestion and sharded blocking add nothing and lose nothing.
func TestGoldenPipelineAgreesWithClassicPath(t *testing.T) {
	for _, ds := range goldenSeeds {
		records, err := cem.GenerateRecords(ds.kind, ds.scale, ds.seed)
		if err != nil {
			t.Fatal(err)
		}
		pipe, err := cem.NewPipeline(
			cem.WithMatcher(cem.MatcherMLN),
			cem.WithScheme(cem.SchemeSMP),
			cem.WithShards(4),
		)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pipe.Run(context.Background(), records)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s-%s-%s", ds.kind, cem.MatcherMLN, cem.SchemeSMP)
		path := filepath.Join("testdata", "golden", name+".golden")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Skipf("fixture %s not generated yet", path)
		}
		if got := renderMatches(res.Result); got != string(want) {
			t.Errorf("%s: pipeline match set diverges from golden fixture: %s",
				name, firstDiff(got, string(want)))
		}
	}
}
