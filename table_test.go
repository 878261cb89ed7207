package cem_test

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	cem "repro"
	"repro/match"
)

// TestBuiltinsShareOneTable: an experiment has one candidate table. Both
// built-in matchers and a registered rules program are ground over that
// very value — after cem.New and after every Pipeline.Update — and once
// one of them has prepared the cover the others find the scoping done: all
// three answer ScopeIDs with the same cached lists.
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
		matchers := map[string]match.DenseMatcher{"mln": exp.MLN, "rules": exp.Rules, program: named}
		for name, m := range matchers {
			if m.CandidateTable() != exp.Table {
				t.Errorf("%s: %s is ground over a table of its own", when, name)
			}
		}
		exp.MLN.PrepareCover(exp.Cover)
		scoped := make([][]int32, len(exp.Cover.Sets))
		for i, set := range exp.Cover.Sets {
			scoped[i] = exp.MLN.ScopeIDs(set)
		}
		for name, m := range matchers {
			m.PrepareCover(exp.Cover)
			for i, set := range exp.Cover.Sets {
				got := m.ScopeIDs(set)
				if len(got) != len(scoped[i]) || (len(got) > 0 && &got[0] != &scoped[i][0]) {
					t.Fatalf("%s: %s scoped neighborhood %d again", when, name, i)
				}
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
