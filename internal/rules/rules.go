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
// program is ground once instead of interpreted per call. New lowers the
// rules to one support requirement per candidate. The first use of the
// matcher then materializes the join's static side (ground.go): how many
// coauthors the two references share — matched by reflexivity whatever
// the evidence — and, for the candidates that still need more, the
// sorted ids of the candidate pairs {c1, c2} with c1 a coauthor of one
// side and c2 of the other. A rule check is then "count the supports
// that are equals, stop at k". PrepareCover (core.ScopePreparer) adds the
// scoped candidate ids of every neighborhood, and Match runs the
// fixpoint over a pooled dense state vector, reading the evidence
// through it rather than copying it (match.go).
//
// Evidence — the caller's pos/neg sets and the ground Seed constants of
// compiled programs (hardseed_doc.go) — is read on ground candidate
// pairs only: a pair outside the candidate set is neither echoed nor
// counted as support. No scheme can produce such a pair (M+ only ever
// holds matcher outputs), and the MLN matcher reads evidence the same way.
package rules

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

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
	// ErrCandidateRange marks a candidate pair with an endpoint that is
	// not a reference of the dataset.
	ErrCandidateRange = errors.New("rules: candidate pair outside the dataset")
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

// Matcher is the ground RULES program over one dataset. It implements
// core.Matcher (Type-I only — RULES is not probabilistic, so MMP does not
// apply; Appendix C evaluates it with NO-MP, SMP and FULL) and
// core.ScopePreparer. The model is immutable once ground and safe for
// concurrent use.
//
// Candidate ids are positions in (A, B) order, so the candidates with
// first endpoint e are the id range first[e]..first[e+1], ascending in B:
// the adjacency, duplicate detection and Candidates' output order all
// fall out of that one ordering.
type Matcher struct {
	co    *graph.Graph
	pairs []core.Pair
	seed  []Seed
	first []int32

	// want[id] is how many matched supporting pairs candidate id still
	// needs to fire: 0 fires unconditionally, never cannot fire. New sets
	// the rule's demand; ground lowers it by the shared coauthors and
	// fills the support relation sup[supOff[id]:supOff[id+1]].
	want       []int32
	supOff     []int32
	sup        []int32
	groundOnce sync.Once

	scopes atomic.Pointer[core.CoverScopes[scope]]
	wsPool sync.Pool
}

// New grounds the program for a dataset over candidate pairs, in time
// linear in the candidates when they arrive in (A, B) order, as blocking
// emits them; any other order is sorted first. Either way candidate ids
// are positions in (A, B) order — packed-key order — which is the
// invariant CandidateTable publishes to the engine (core.DenseMatcher):
// ascending ids are ascending keys.
func New(d *bib.Dataset, cands []Candidate, rs []Rule) (*Matcher, error) {
	if err := Validate(rs); err != nil {
		return nil, err
	}
	// One rule per level (Validate), so the program is four numbers.
	need := [similarity.LevelStrong + 1]int32{never, never, never, never}
	for _, r := range rs {
		need[r.Level] = int32(min(r.MinCoauthorMatches, math.MaxInt32))
	}
	// Packed-key order is (A, B) order on valid pairs, and puts equal
	// pairs side by side whatever else it is handed.
	byPair := func(a, b Candidate) int { return cmp.Compare(a.Pair.Key(), b.Pair.Key()) }
	if !slices.IsSortedFunc(cands, byPair) {
		cands = slices.Clone(cands)
		slices.SortFunc(cands, byPair)
	}
	n := d.NumRefs()
	m := &Matcher{
		co:    d.Coauthor(),
		pairs: make([]core.Pair, len(cands)),
		seed:  make([]Seed, len(cands)),
		want:  make([]int32, len(cands)),
		first: make([]int32, n+1),
	}
	for i, c := range cands {
		p := c.Pair
		if !p.Valid() {
			return nil, fmt.Errorf("rules: invalid candidate pair %v", p)
		}
		if p.A < 0 || int(p.B) >= n {
			return nil, fmt.Errorf("%w: %v, references are 0..%d", ErrCandidateRange, p, n-1)
		}
		if i > 0 && p == cands[i-1].Pair {
			return nil, fmt.Errorf("rules: duplicate candidate pair %v", p)
		}
		m.pairs[i] = p
		m.seed[i] = c.Seed & (SeedEqual | SeedDistinct)
		m.want[i] = never
		if c.Level >= 0 && int(c.Level) < len(need) {
			m.want[i] = need[c.Level]
		}
		m.first[p.A+1]++
	}
	for e := 0; e < n; e++ {
		m.first[e+1] += m.first[e]
	}
	m.wsPool.New = func() any { return newWorkspace(len(m.pairs), n) }
	return m, nil
}

// NumPairs returns the number of ground candidates.
func (m *Matcher) NumPairs() int { return len(m.pairs) }

var (
	_ core.Matcher      = (*Matcher)(nil)
	_ core.DenseMatcher = (*Matcher)(nil)
)
