package cem_test

// Tests for the declarative rules-file surface: compile/register/load,
// the differential guarantee (a rules file produces byte-identical
// matches to the equivalent handwritten []match.Rule program on the
// golden corpora), and the people domain's end-to-end golden fixtures —
// records through the unmodified pipeline with only a rules file.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	cem "repro"
	"repro/internal/canopy"
	"repro/internal/rules"
	"repro/match"
)

// loadProgram loads a rules file through the public LoadRulesFile path
// exactly once per path (the registry is process-global), returning the
// registered matcher name.
var (
	programsMu sync.Mutex
	programs   = map[string]string{}
)

func loadProgram(t testing.TB, path string) string {
	t.Helper()
	programsMu.Lock()
	defer programsMu.Unlock()
	if name, ok := programs[path]; ok {
		return name
	}
	name, err := cem.LoadRulesFile(path)
	if err != nil {
		t.Fatalf("loading %s: %v", path, err)
	}
	programs[path] = name
	return name
}

// registerOnce registers factory under name unless a factory already
// holds it, and returns the name.
func registerOnce(name string, factory cem.MatcherFactory) string {
	programsMu.Lock()
	defer programsMu.Unlock()
	if _, ok := programs[name]; !ok {
		cem.RegisterMatcher(name, factory)
		programs[name] = name
	}
	return name
}

func TestCompileRuleProgram(t *testing.T) {
	src := "program demo\nmatch level 3\nmatch level 2 when cooccur >= 1\n"
	p, err := cem.CompileRuleProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "demo" {
		t.Errorf("Name() = %q", p.Name())
	}
	rs := p.Rules()
	if len(rs) != 2 || rs[0].Level != match.LevelStrong || rs[1].MinCoauthorMatches != 1 {
		t.Errorf("Rules() = %+v", rs)
	}
	// The canonical rendering reparses to itself.
	q, err := cem.CompileRuleProgram(p.String())
	if err != nil {
		t.Fatalf("canonical form does not reparse: %v", err)
	}
	if q.String() != p.String() {
		t.Errorf("canonical form not a fixed point:\n%s\nvs\n%s", p.String(), q.String())
	}
}

func TestCompileRuleProgramErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"syntax", "program p\nmatch level\n", "2:12"},
		{"unknown level", "program p\nmatch level 9\n", "unknown similarity level"},
		{"unknown field", "program p\nfields a\nlevel 2 when b equal\nmatch level 2\n", "3:14"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := cem.CompileRuleProgram(tc.src); err == nil {
				t.Fatalf("compiled, want error containing %q", tc.want)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q lacks %q", err, tc.want)
			}
		})
	}
}

func TestRegisterRuleProgramCollision(t *testing.T) {
	p, err := cem.CompileRuleProgram("program mln\nmatch level 3\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := cem.RegisterRuleProgram(p); err == nil {
		t.Fatal("registering over the built-in mln matcher succeeded")
	} else if !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("collision error = %v", err)
	}
}

func TestLoadRulesFile(t *testing.T) {
	if _, err := cem.LoadRulesFile(filepath.Join(t.TempDir(), "absent.rules")); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
	path := filepath.Join(t.TempDir(), "t.rules")
	if err := os.WriteFile(path, []byte("program load-file-test\nmatch level 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	name, err := cem.LoadRulesFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if name != "load-file-test" {
		t.Errorf("name = %q", name)
	}
	found := false
	for _, m := range cem.Matchers() {
		if m == name {
			found = true
		}
	}
	if !found {
		t.Errorf("%q not in Matchers() = %v", name, cem.Matchers())
	}
	// A second load collides on the registry.
	if _, err := cem.LoadRulesFile(path); err == nil {
		t.Error("reloading the same program name succeeded")
	}
}

// TestRulesFileDifferential: each fixture rules file runs exactly as its
// handwritten []match.Rule equivalent, counters included, on every golden
// corpus and scheme the rules matcher supports; the paper program also
// lands on the on-disk rules fixtures.
func TestRulesFileDifferential(t *testing.T) {
	for _, c := range goldenSeeds {
		for _, prog := range []struct {
			file  string
			rules []match.Rule // nil: the built-in rules matcher (PaperRules), and its fixtures
		}{
			{"paper.rules", nil},
			{"strict.rules", []match.Rule{
				{Level: match.LevelStrong, MinCoauthorMatches: 1},
				{Level: match.LevelMedium, MinCoauthorMatches: 2},
			}},
			{"lenient.rules", []match.Rule{
				{Level: match.LevelStrong, MinCoauthorMatches: 0},
				{Level: match.LevelMedium, MinCoauthorMatches: 0},
				{Level: match.LevelWeak, MinCoauthorMatches: 1},
			}},
		} {
			hand := cem.MatcherRules
			if prog.rules != nil {
				hand = registerOnce("hand-"+prog.file, func(mc cem.MatcherContext) (match.Matcher, error) {
					return rules.Ground(mc.Dataset, mc.Table, canopy.Levels(mc.Candidates), nil, prog.rules)
				})
			}
			for _, scheme := range goldenMatrix[cem.MatcherRules] {
				t.Run(fmt.Sprintf("%s-%s-%s", c.kind, prog.file, scheme), func(t *testing.T) {
					o := theorems(t, scenario{corpus: c, matcher: loadProgram(t, filepath.Join("testdata", "rules", prog.file)), twin: hand, scheme: scheme})
					if prog.rules == nil {
						want := scenario{corpus: c, matcher: cem.MatcherRules}.ref(t, scheme)
						if got, want := renderMatches(o.res), renderMatches(want); got != want {
							t.Errorf("rules file diverges from the rules fixture: %s", firstDiff(got, want))
						}
					}
				})
			}
		}
	}
}

// TestGoldenPeopleRules pins the second domain end to end: the
// people-like corpus flows records → blocking → matching → metrics
// through the unmodified pipeline, programmed only by
// testdata/rules/people.rules. Refresh with
//
//	go test -run TestGoldenPeopleRules -update
func TestGoldenPeopleRules(t *testing.T) {
	name := loadProgram(t, filepath.Join("testdata", "rules", "people.rules"))
	records, err := cem.GenerateRecords(cem.People, 0.25, 42)
	if err != nil {
		t.Fatal(err)
	}
	renders := map[cem.Scheme]string{}
	for _, scheme := range []cem.Scheme{cem.SchemeNoMP, cem.SchemeSMP, cem.SchemeFull} {
		t.Run(string(scheme), func(t *testing.T) {
			pipe, err := cem.NewPipeline(
				cem.WithDatasetName("people-like"),
				cem.WithMatcher(name),
				cem.WithScheme(scheme),
			)
			if err != nil {
				t.Fatal(err)
			}
			res, err := pipe.Run(context.Background(), records)
			if err != nil {
				t.Fatal(err)
			}
			got := renderMatches(res.Result)
			renders[scheme] = got
			path := filepath.Join("testdata", "golden", fmt.Sprintf("people-%s-%s.golden", name, scheme))
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture %s (run `go test -run TestGoldenPeopleRules -update`): %v", path, err)
			}
			if got != string(want) {
				t.Errorf("match set diverges from %s: %s", path, firstDiff(got, string(want)))
			}
			// End-to-end metrics: the corpus is fully labeled, so the
			// pipeline must score it, and the program should dedup it
			// well — the seeds and the phone level are near-oracles.
			if !res.Labeled {
				t.Fatal("people corpus not scored despite full labels")
			}
			if p := res.Report.PRF.Precision; p < 0.95 {
				t.Errorf("precision %.3f below floor 0.95", p)
			}
			if r := res.Report.PRF.Recall; r < 0.80 {
				t.Errorf("recall %.3f below floor 0.80", r)
			}
		})
	}
	// The program is monotone and idempotent (seeds are constant
	// evidence), so SMP must reproduce FULL exactly — Theorem 2 extends
	// to the second domain.
	if renders[cem.SchemeSMP] != "" && renders[cem.SchemeSMP] != renders[cem.SchemeFull] {
		t.Error("SMP and FULL diverge on the people corpus")
	}
}
