// Package lang is the declarative surface of the RULES matcher: a small
// text language for Dedupalog*-style programs (the monotone fragment of
// Appendix A) that compiles to the existing internal/rules machinery, so
// a new matching scenario needs a rules file rather than a Go package.
//
// The processing split follows the classic parse → plan → evaluate
// shape: Parse builds a positioned AST and rejects syntax errors with
// line:col coordinates; Compile validates the program against the
// engine's invariants (known fields, thresholds in range, one rule per
// level — sharing the rules package's typed errors) and produces a Plan;
// Plan.NewMatcher grounds the plan over a dataset and its
// core.CandidateTable, yielding the one rules engine (*rules.Matcher)
// whatever the program declares: levels and seeds become columns over
// the table, which the matcher shares with every other matcher of the
// experiment.
//
// A program is line-oriented; '#' starts a comment. Example:
//
//	program people-v1
//	fields name, street, zip, phone
//
//	level 3 when name equal and phone equal
//	level 2 when name jaro >= 0.9 and street qgram >= 0.5
//	level 1 when name jaro >= 0.82
//
//	match level 3
//	match level 2 when cooccur >= 1
//	match level 1 when cooccur >= 2
//
//	equal when phone equal and zip equal
//	distinct when name differ and zip differ
//
// The clauses:
//
//   - "fields" names the components of each record's composite key
//     (split on similarity.FieldSep), in order.
//   - "level N when <conj>" re-discretizes candidate similarity: a
//     candidate pair gets the highest declared level whose condition
//     holds (clauses are consulted strongest-first), or drops out of
//     derivation entirely when none does. A program with no level
//     clauses keeps the levels the blocking stage assigned.
//   - "match level N [when cooccur >= K]" is one Dedupalog* rule: pairs
//     at level N fire once K co-occurring pairs (coauthors, household
//     co-members, …) are already matched. Omitting the support clause
//     means K = 0: the level fires unconditionally.
//   - "equal when <conj>" / "distinct when <conj>" are hard seeds:
//     candidate pairs satisfying the condition are ground as hard-equal
//     or hard-distinct (the rules.Seed column) and behave in every Match
//     call exactly like caller-supplied positive or negative evidence
//     (see rules/hardseed_doc.go). Distinct wins on overlap, as
//     negative evidence does everywhere else in the engine.
//
// Conjunctions run cheapest-first: Compile moves the constant-time
// predicates (equal, differ, absdiff) ahead of the string kernels (lev,
// jaro, qgram) in the executed plan. Predicates are pure, so only the
// cost changes; Print keeps the order the program was written in.
//
// Predicates compare one named field of both records with the typed
// kernels of internal/similarity: "f equal", "f differ",
// "f jaro >= T", "f qgram >= T" (T ∈ [0,1]), "f lev <= K",
// "f absdiff <= X" (numeric fields), joined by "and".
package lang

import "fmt"

// Pos is a 1-based source coordinate.
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Op is a field comparison operator.
type Op int

const (
	// OpEqual holds when both fields normalize to the same non-empty
	// value.
	OpEqual Op = iota
	// OpDiffer holds when both fields are present and normalize to
	// different values.
	OpDiffer
	// OpJaro holds when the normalized Jaro-Winkler similarity reaches
	// the threshold.
	OpJaro
	// OpQGram holds when the normalized 2-gram Jaccard similarity
	// reaches the threshold.
	OpQGram
	// OpLev holds when the normalized edit distance is at most the
	// threshold.
	OpLev
	// OpAbsDiff holds when both fields parse as numbers at most the
	// threshold apart.
	OpAbsDiff
)

func (o Op) String() string {
	switch o {
	case OpEqual:
		return "equal"
	case OpDiffer:
		return "differ"
	case OpJaro:
		return "jaro"
	case OpQGram:
		return "qgram"
	case OpLev:
		return "lev"
	case OpAbsDiff:
		return "absdiff"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Pred is one field predicate. Num is the threshold for the thresholded
// operators (an integer-valued count for OpLev) and unused for
// OpEqual/OpDiffer.
type Pred struct {
	Pos   Pos
	Field string
	Op    Op
	Num   float64
}

// FieldDecl is one named field with its declaration site.
type FieldDecl struct {
	Pos  Pos
	Name string
}

// LevelClause assigns similarity level Level to candidate pairs whose
// conjunction holds.
type LevelClause struct {
	Pos   Pos
	Level int
	Cond  []Pred
}

// MatchClause is one derivation rule: level Level fires with Cooccur
// matched co-occurring pairs of support.
type MatchClause struct {
	Pos     Pos
	Level   int
	Cooccur int
}

// SeedClause is a hard evidence seed: positive (equal) or, when Negated,
// negative (distinct).
type SeedClause struct {
	Pos     Pos
	Negated bool
	Cond    []Pred
}

// Program is the parsed AST. Clause slices preserve declaration order.
type Program struct {
	Name    string
	Fields  []FieldDecl
	Levels  []LevelClause
	Matches []MatchClause
	Seeds   []SeedClause
}

// ParseError is a syntax error with its source position.
type ParseError struct {
	Pos Pos
	Msg string
}

func (e *ParseError) Error() string { return fmt.Sprintf("rules program %s: %s", e.Pos, e.Msg) }

// CompileError is a semantic error with its source position, wrapping a
// typed sentinel (the rules package's validation errors or this
// package's Err* values) for errors.Is dispatch.
type CompileError struct {
	Pos Pos
	Err error
}

func (e *CompileError) Error() string { return fmt.Sprintf("rules program %s: %v", e.Pos, e.Err) }

// Unwrap exposes the sentinel to errors.Is.
func (e *CompileError) Unwrap() error { return e.Err }
