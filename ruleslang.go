package cem

import (
	"fmt"
	"os"

	"repro/internal/rules/lang"
	"repro/match"
)

// RuleProgram is a compiled declarative rules program (see
// internal/rules/lang for the language): a named, validated plan that
// grounds to a registered matcher. Programs come from CompileRuleProgram
// or LoadRulesFile and plug into experiments via RegisterRuleProgram —
// after which the program's name selects it anywhere a matcher name is
// accepted (Runner, Pipeline, emmatch -matcher, emserve -matcher).
type RuleProgram struct {
	plan *lang.Plan
}

// CompileRuleProgram parses and compiles a rules program source.
// Syntax errors (*lang.ParseError) and semantic errors
// (*lang.CompileError) carry line:col positions.
func CompileRuleProgram(src string) (*RuleProgram, error) {
	plan, err := lang.CompileSource(src)
	if err != nil {
		return nil, err
	}
	return &RuleProgram{plan: plan}, nil
}

// Name returns the program's declared name — the matcher name it
// registers under.
func (p *RuleProgram) Name() string { return p.plan.Prog.Name }

// Rules returns the program's match clauses lowered to the engine's
// rule form.
func (p *RuleProgram) Rules() []match.Rule {
	return append([]match.Rule(nil), p.plan.Rules...)
}

// String renders the program in canonical source form.
func (p *RuleProgram) String() string { return p.plan.Prog.Print() }

// Factory returns the matcher factory grounding this program: blocking
// candidates (releveled by the program's level clauses when present) fed
// to the rules engine, each carrying the hard equal/distinct seed the
// program's seed clauses ground on it.
func (p *RuleProgram) Factory() MatcherFactory {
	return func(mc MatcherContext) (match.Matcher, error) {
		t, levels, err := mc.grounding()
		if err != nil {
			return nil, err
		}
		return p.plan.NewMatcher(mc.Dataset, t, levels)
	}
}

// RegisterRuleProgram registers the program's factory under its declared
// name. Unlike RegisterMatcher it reports a name collision as an error
// rather than panicking, because rules files arrive from user input
// (CLI flags, config) rather than from init functions.
func RegisterRuleProgram(p *RuleProgram) error {
	if err := tryRegisterMatcher(p.Name(), p.Factory()); err != nil {
		return fmt.Errorf("cem: rules program %q: %w", p.Name(), err)
	}
	return nil
}

// LoadRulesFile reads, compiles and registers a rules program from a
// file, returning its declared name. This is the engine behind the CLIs'
// -rules-file flag.
func LoadRulesFile(path string) (string, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("cem: reading rules file: %w", err)
	}
	p, err := CompileRuleProgram(string(src))
	if err != nil {
		return "", fmt.Errorf("cem: %s: %w", path, err)
	}
	if err := RegisterRuleProgram(p); err != nil {
		return "", err
	}
	return p.Name(), nil
}
