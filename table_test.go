package cem_test

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	cem "repro"
	"repro/internal/mln"
	"repro/internal/rules"
	"repro/match"
)

// builtins returns the experiment's two built-in matchers: the instances
// its runners naming them share.
func builtins(tb testing.TB, exp *cem.Experiment) (*mln.Matcher, *rules.Matcher) {
	tb.Helper()
	var ms [2]match.Matcher
	for i, name := range []string{cem.MatcherMLN, cem.MatcherRules} {
		r, err := exp.Runner(name)
		if err != nil {
			tb.Fatal(err)
		}
		ms[i] = r.Matcher()
	}
	return ms[0].(*mln.Matcher), ms[1].(*rules.Matcher)
}

// TestBuiltinsShareOneTable: an experiment has one candidate table. Both
// built-in matchers and a registered rules program are ground over that
// very value — after cem.New and after every Pipeline.Update — and once
// one of them has prepared the cover the others find the scoping done:
// the table keeps the one Scopes all three were handed.
func TestBuiltinsShareOneTable(t *testing.T) {
	program := loadProgram(t, filepath.Join("testdata", "rules", "paper.rules"))
	check := func(when string, exp *cem.Experiment) {
		t.Helper()
		runner, err := exp.Runner(program)
		if err != nil {
			t.Fatal(err)
		}
		named, ok := runner.Matcher().(match.DenseMatcher)
		if !ok {
			t.Fatalf("%s: the rules program grounds to %T, no dense matcher", when, runner.Matcher())
		}
		if exp.Table == nil || exp.Table.Len() != len(exp.Candidates) {
			t.Fatalf("%s: table %v for %d candidates", when, exp.Table, len(exp.Candidates))
		}
		for i, c := range exp.Candidates {
			if exp.Table.Pair(int32(i)) != c.Pair {
				t.Fatalf("%s: candidate %d is %v, table id %d is %v", when, i, c.Pair, i, exp.Table.Pair(int32(i)))
			}
		}
		mlnM, rulesM := builtins(t, exp)
		matchers := map[string]match.DenseMatcher{"mln": mlnM, "rules": rulesM, program: named}
		for name, m := range matchers {
			if m.CandidateTable() != exp.Table {
				t.Errorf("%s: %s is ground over a table of its own", when, name)
			}
		}
		mlnM.PrepareCover(exp.Cover)
		scoped := exp.Table.PrepareCover(exp.Cover)
		for name, m := range matchers {
			m.PrepareCover(exp.Cover)
			if exp.Table.PrepareCover(exp.Cover) != scoped {
				t.Fatalf("%s: %s scoped the cover again", when, name)
			}
		}
	}

	exp, err := cem.New(cem.NewDataset(cem.HEPTH, 0.25, 42))
	if err != nil {
		t.Fatal(err)
	}
	check("cem.New", exp)

	records, err := cem.GenerateRecords(cem.DBLP, 0.25, 42)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := cem.NewPipeline()
	if err != nil {
		t.Fatal(err)
	}
	var res *cem.PipelineResult
	for bi, batch := range streamBatches(records) {
		if res, err = pipe.Update(context.Background(), res, batch); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("update %d", bi), res.Experiment)
	}
}

// TestSupportsKeepPaperPairs pins why FULL's ground network stays small:
// the coauthor graph links the references of one paper (of one group on
// the people-like corpus), so a support joining candidate (a, b) to
// (c1, c2) — c1 a coauthor of a, c2 of b — joins two candidates over the
// same unordered pair of papers. Every connected component of the
// support graph therefore lies inside one paper pair and has at most
// K_a·K_b variables, K being the number of references on each paper.
func TestSupportsKeepPaperPairs(t *testing.T) {
	exps := map[string]*cem.Experiment{}
	for _, ds := range goldenSeeds {
		exp, err := cem.New(cem.NewDataset(ds.kind, ds.scale, ds.seed))
		if err != nil {
			t.Fatal(err)
		}
		exps[string(ds.kind)] = exp
	}
	records, err := cem.GenerateRecords(cem.People, 0.25, 42)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := cem.NewPipeline(cem.WithMatcher(loadProgram(t, filepath.Join("testdata", "rules", "people.rules"))))
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipe.Run(context.Background(), records)
	if err != nil {
		t.Fatal(err)
	}
	exps["people"] = res.Experiment

	for name, exp := range exps {
		t.Run(name, func(t *testing.T) {
			d, table := exp.Dataset, exp.Table
			papers := func(p match.Pair) [2]int {
				x, y := int(d.Refs[p.A].Paper), int(d.Refs[p.B].Paper)
				return [2]int{min(x, y), max(x, y)}
			}
			parent := make([]int32, table.Len())
			for i := range parent {
				parent[i] = int32(i)
			}
			var find func(int32) int32
			find = func(i int32) int32 {
				if parent[i] != i {
					parent[i] = find(parent[i])
				}
				return parent[i]
			}
			sup := table.Supports(d.Coauthor())
			edges := 0
			for id := int32(0); int(id) < table.Len(); id++ {
				for _, s := range sup.Of(id) {
					if got, want := papers(table.Pair(s.ID)), papers(table.Pair(id)); got != want {
						t.Fatalf("support %v of %v spans papers %v, want %v", table.Pair(s.ID), table.Pair(id), got, want)
					}
					parent[find(id)] = find(s.ID)
					edges++
				}
			}
			size := map[int32]int{}
			for id := int32(0); int(id) < table.Len(); id++ {
				size[find(id)]++
			}
			largest := 0
			for root, n := range size {
				pp := papers(table.Pair(root))
				if bound := len(d.Papers[pp[0]].Refs) * len(d.Papers[pp[1]].Refs); n > bound {
					t.Errorf("component of %v has %d variables, more than K_a·K_b = %d", table.Pair(root), n, bound)
				}
				largest = max(largest, n)
			}
			if edges == 0 || largest < 2 {
				t.Fatalf("%d support edges, largest component %d: the check is vacuous", edges, largest)
			}
			t.Logf("%d candidates, %d support edges, %d components, largest %d", table.Len(), edges, len(size), largest)
		})
	}
}
