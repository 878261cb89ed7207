// Package rules implements the paper's second matcher, RULES: a
// declarative collective matcher in the style of Dedupalog (Arasu, Ré &
// Suciu, reference [2]), restricted to the monotone fragment Dedupalog*
// of Appendix A (no negation, transitive closure as an end-of-run step
// rather than a global constraint — Proposition 5 shows this fragment is
// monotone, so SMP is sound and, empirically, complete for it).
//
// The concrete program is the Appendix B rule set:
//
//  1. similar(e1,e2,3) ⇒ equals(e1,e2)
//  2. similar(e1,e2,2) ∧ one matched coauthor pair   ⇒ equals(e1,e2)
//  3. similar(e1,e2,1) ∧ two distinct matched pairs  ⇒ equals(e1,e2)
//
// Every rule body is the same join, similar ⋈ coauthor ⋈ equals, so the
// program is ground once instead of interpreted per call. Ground lowers
// the rules to one support requirement per candidate of a
// core.CandidateTable. The join's static side is the table's
// (core.Supports, computed once per table whichever matcher asks first):
// how many coauthors the two references share — matched by reflexivity
// whatever the evidence, so they come off the requirement for good on the
// matcher's first use — and the ids of the candidate pairs {c1, c2} with
// c1 a coauthor of one side and c2 of the other. A rule check is then
// "count the supports that are equals, stop at k". Ids, scoping
// (PrepareCover) and Candidates are the table's too; what this package
// owns is the seeds, the requirements and the fixpoint, which Match runs
// over a pooled dense state vector, reading the evidence through it
// rather than copying it (match.go).
//
// Evidence — the caller's pos/neg sets and the ground Seed constants of
// compiled programs (hardseed_doc.go) — is read on ground candidate
// pairs only: a pair outside the candidate set is neither echoed nor
// counted as support. No scheme can produce such a pair (M+ only ever
// holds matcher outputs), and the MLN matcher reads evidence the same way.
package rules

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/bib"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/similarity"
)

// Rule is one threshold rule of the Dedupalog* program: a pair at exactly
// Level fires when at least MinCoauthorMatches distinct coauthor pairs
// are already matched (a shared identical coauthor reference counts as
// matched by reflexivity).
type Rule struct {
	Level              similarity.Level
	MinCoauthorMatches int
}

// Program-validation errors, matchable with errors.Is. Validate wraps
// each with the offending rule's details.
var (
	// ErrNegativeSupport marks a rule demanding a negative number of
	// matched coauthor pairs.
	ErrNegativeSupport = errors.New("rules: negative coauthor requirement")
	// ErrUnknownLevel marks a rule on a level outside the discretized
	// similarity buckets {1, 2, 3}: no candidate ever carries such a
	// level, so the rule can never fire.
	ErrUnknownLevel = errors.New("rules: unknown similarity level")
	// ErrDuplicateLevel marks a program with two rules on the same
	// level. Evaluation takes the least-demanding rule per level, so the
	// more-demanding duplicate is dead weight — almost always a program
	// mistake (the author meant a different level).
	ErrDuplicateLevel = errors.New("rules: duplicate rule level")
)

// Validate checks a rule program for the degenerate shapes New used to
// accept silently: negative support requirements, rules on levels no
// candidate can carry, and duplicate levels (only the least-demanding
// rule of a level is ever consulted, so a duplicate is dead). An empty
// program is valid — it simply derives nothing.
func Validate(rs []Rule) error {
	seen := map[similarity.Level]int{}
	for i, r := range rs {
		if r.MinCoauthorMatches < 0 {
			return fmt.Errorf("%w: rule %d wants %d matched coauthor pairs", ErrNegativeSupport, i, r.MinCoauthorMatches)
		}
		if r.Level < similarity.LevelWeak || r.Level > similarity.LevelStrong {
			return fmt.Errorf("%w: rule %d fires on level %d, want 1..3", ErrUnknownLevel, i, r.Level)
		}
		if j, dup := seen[r.Level]; dup {
			return fmt.Errorf("%w: rules %d and %d both fire on level %d", ErrDuplicateLevel, j, i, r.Level)
		}
		seen[r.Level] = i
	}
	return nil
}

// PaperRules returns the Appendix B program.
func PaperRules() []Rule {
	return []Rule{
		{Level: similarity.LevelStrong, MinCoauthorMatches: 0},
		{Level: similarity.LevelMedium, MinCoauthorMatches: 1},
		{Level: similarity.LevelWeak, MinCoauthorMatches: 2},
	}
}

// Seed is the hard evidence a compiled program grounds on a candidate
// (see hardseed_doc.go). The zero value is no seed. A candidate meeting
// both an equal and a distinct clause carries both bits and behaves like
// caller evidence in pos ∩ neg: it supports other pairs and is never
// reported.
type Seed uint8

const (
	// SeedEqual marks a hard equality: the pair counts as equals in every
	// Match call and is echoed when in scope.
	SeedEqual = Seed(stPos)
	// SeedDistinct marks a hard inequality: the pair never fires and is
	// never echoed, also when the evidence or SeedEqual says otherwise.
	SeedDistinct = Seed(stNeg)
)

// Candidate is a match variable: a reference pair with its level and,
// for compiled programs, its ground seed.
type Candidate struct {
	Pair  core.Pair
	Level similarity.Level
	Seed  Seed
}

// never is the support requirement of a candidate no rule can derive.
const never = -1

// Matcher is the ground RULES program over one dataset's candidate table.
// It implements core.Matcher (Type-I only — RULES is not probabilistic, so
// MMP does not apply; Appendix C evaluates it with NO-MP, SMP and FULL)
// and core.DenseMatcher. The model is immutable once ground and safe for
// concurrent use.
type Matcher struct {
	table *core.CandidateTable
	co    *graph.Graph
	seed  []Seed

	// want[id] is how many matched supporting pairs candidate id still
	// needs to fire: 0 fires unconditionally, never cannot fire. Ground
	// sets the rule's demand; the first use lowers it by the shared
	// coauthors and takes the table's support relation (lower).
	want      []int32
	sup       *core.Supports
	lowerOnce sync.Once

	wsPool sync.Pool
}

// New grounds the program for a dataset over candidate pairs: it builds
// their core.CandidateTable — candidates in any order, validated there —
// and grounds over it.
func New(d *bib.Dataset, cands []Candidate, rs []Rule) (*Matcher, error) {
	t, cands, err := core.TableOf(d.NumRefs(), cands, func(c Candidate) core.Pair { return c.Pair })
	if err != nil {
		return nil, err
	}
	levels, seeds := make([]similarity.Level, len(cands)), make([]Seed, len(cands))
	for i, c := range cands {
		levels[i], seeds[i] = c.Level, c.Seed
	}
	return Ground(d, t, levels, seeds, rs)
}

// Ground grounds the program over a candidate table of the dataset, in
// time linear in the candidates: levels and seeds are columns in table
// order, seeds nil for a program without any.
func Ground(d *bib.Dataset, t *core.CandidateTable, levels []similarity.Level, seeds []Seed, rs []Rule) (*Matcher, error) {
	if err := Validate(rs); err != nil {
		return nil, err
	}
	if len(levels) != t.Len() || (seeds != nil && len(seeds) != t.Len()) {
		return nil, fmt.Errorf("rules: %d levels and %d seeds for %d candidates", len(levels), len(seeds), t.Len())
	}
	// One rule per level (Validate), so the program is four numbers.
	need := [similarity.LevelStrong + 1]int32{never, never, never, never}
	for _, r := range rs {
		need[r.Level] = int32(min(r.MinCoauthorMatches, math.MaxInt32))
	}
	m := &Matcher{table: t, co: d.Coauthor(), seed: make([]Seed, t.Len()), want: make([]int32, t.Len())}
	for id, s := range seeds {
		m.seed[id] = s & (SeedEqual | SeedDistinct)
	}
	for id, l := range levels {
		m.want[id] = never
		if l >= 0 && int(l) < len(need) {
			m.want[id] = need[l]
		}
	}
	m.wsPool.New = func() any { return &workspace{state: make([]uint8, t.Len())} }
	return m, nil
}

// lower finishes the grounding on the matcher's first use (every pipeline
// grounds a rules matcher; only the ones that run pay for this): it takes
// the table's support relation — already there when another matcher over
// the same table asked first — and lowers every open requirement by the
// candidate's shared coauthors, which are matched by reflexivity under any
// evidence. Seeded candidates are decided before any rule runs; their
// requirement is never read.
func (m *Matcher) lower() {
	m.lowerOnce.Do(func() {
		m.sup = m.table.Supports(m.co)
		for id, k := range m.want {
			if k > 0 {
				m.want[id] = max(0, k-m.sup.Shared(int32(id)))
			}
		}
	})
}

// NumPairs returns the number of ground candidates.
func (m *Matcher) NumPairs() int { return m.table.Len() }

var (
	_ core.Matcher      = (*Matcher)(nil)
	_ core.DenseMatcher = (*Matcher)(nil)
)
