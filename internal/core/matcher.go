package core

// Matcher is the Type-I black-box abstraction (Definition 1): a function
// E(E, V+, V−) from an entity subset and positive/negative evidence sets
// to a set of matches. Implementations must be deterministic.
//
// A *well-behaved* matcher additionally satisfies idempotence
// (Definition 2) and monotonicity (Definition 3); the framework's
// soundness and consistency guarantees (Theorems 2 and 4) hold only for
// well-behaved matchers, and internal/core's wellbehaved.go provides
// checkers used by the matcher packages' test suites.
//
// The evidence contract: a matcher reads evidence on its own match
// variables — the pairs Candidates enumerates over the whole entity set —
// and nowhere else. A pair in pos or neg that is not such a variable is
// neither echoed nor consulted. The schedulers never produce one (M+
// only ever holds matcher outputs); a warm start may carry one whose
// candidate has vanished, and it must change nothing. Both built-in
// matchers behave this way (TestEvidenceContract).
//
// Match takes and returns PairSets, and that is all a matcher needs. A
// matcher that numbers its match variables may also implement
// DenseMatcher (dense.go), the optional id form of the same function;
// the engine then never hashes a pair on its behalf. It changes no output.
type Matcher interface {
	// Match runs the matcher on the given entities. pos is V+ (pairs known
	// to match) and neg is V− (pairs known not to match); either may be
	// nil. The result contains only valid (normalized, non-reflexive)
	// pairs over the given entities, and must include every candidate
	// over those entities that is in pos and not in neg.
	Match(entities []EntityID, pos, neg PairSet) PairSet

	// Candidates enumerates the match variables the matcher would consider
	// over the given entities (for the bibliographic matchers: the
	// similarity-candidate pairs). COMPUTEMAXIMAL (Algorithm 2), FULL and
	// the UB oracle iterate over these; the result is the caller's — the
	// built-in matchers materialize it from their table's scoped ids on
	// each call, and the dense round path never asks (it reads ScopeIDs).
	Candidates(entities []EntityID) []Pair
}

// ScopePreparer is an optional matcher extension the schedulers invoke
// once per run, before the first evaluation. The cover and the ground
// model are immutable for the whole run — only evidence grows — so a
// matcher can precompute each neighborhood's scoped candidate set, local
// interaction structure and out-of-scope boundary once, turning every
// subsequent Match call on a cover neighborhood into an array walk over a
// prebuilt skeleton instead of per-call map building. The scoped
// candidate sets are the CandidateTable's (CandidateTable.PrepareCover):
// matchers over one table share them, and each adds only what is its own.
//
// PrepareCover must be idempotent and safe to call concurrently with
// Match/Candidates (schedulers may share a matcher across runs); calls
// with covers the matcher has not seen replace the previous preparation.
// Matchers must keep answering correctly for entity slices outside the
// prepared cover.
//
// Implementing ScopePreparer additionally asserts the candidate-closure
// property: Match(E, pos, neg) ⊆ Candidates(E) — with the evidence
// contract above, echoed evidence is candidates too. The schedulers rely
// on it to discharge re-activated neighborhoods with no undecided
// candidate without a matcher call (RunStats.Skips), which is only
// output-identical under this closure. Matchers that can derive pairs
// outside their candidate enumeration (e.g. an interleaved transitive
// closure) must not implement this interface.
//
// DenseMatcher builds on this interface: its ScopeIDs is the prepared
// neighborhood's candidate list as ids, which is what turns the
// undecided-candidate count above into a walk over evidence bits.
type ScopePreparer interface {
	PrepareCover(c *Cover)
}

// prepareScopes announces the run's cover to a scope-preparing matcher
// and reports whether the matcher opted into the candidate-closure
// contract (and therefore into undecided-free re-activation skips).
// Called once by every scheduler that evaluates cover neighborhoods.
func prepareScopes(cfg *Config) bool {
	sp, ok := cfg.Matcher.(ScopePreparer)
	if ok {
		sp.PrepareCover(cfg.Cover)
	}
	return ok
}

// CacheReporter is an optional matcher extension exposing cumulative
// verdict-memo counters (see CacheReport). The schedulers snapshot the
// counters at run start and report the end-of-run delta in
// RunStats.Cache; a memo must never change the matcher's output — hits
// have to return exactly the verdict recomputation would produce.
type CacheReporter interface {
	CacheStats() CacheReport
}

// cacheSnapshot reads a matcher's cumulative cache counters, reporting
// whether the matcher keeps any.
func cacheSnapshot(m Matcher) (CacheReport, bool) {
	if cr, ok := m.(CacheReporter); ok {
		return cr.CacheStats(), true
	}
	return CacheReport{}, false
}

// cacheDelta finalizes a run's cache report against its start snapshot.
func cacheDelta(m Matcher, start CacheReport) CacheReport {
	if cr, ok := m.(CacheReporter); ok {
		return cr.CacheStats().Sub(start)
	}
	return CacheReport{}
}

// Probabilistic is the Type-II abstraction (Definition 5): a matcher
// backed by a probability distribution over match sets. Match must return
// (one of) the most probable set(s), preferring the largest on ties, with
// evidence incorporated by conditioning.
//
// LogScore exposes the distribution: it returns the unnormalized
// log-probability of an arbitrary match set S over the *full* entity
// collection. Only score differences are ever used (MMP Step 7 compares
// PE(M+ ∪ M) against PE(M+)), so the normalization constant is irrelevant
// — this is exactly the "computing PE(S) for a specific S is very cheap"
// property the paper's Algorithm 3 relies on.
type Probabilistic interface {
	Matcher

	// LogScore returns log PE(S) + const for the global model.
	LogScore(s PairSet) float64
}

// ConditionalDecider is an optional extension used by the UB oracle
// (§6.1): DecideGiven reports whether pair p belongs to the matcher's
// output when the truth value of every *other* pair is clamped to the
// membership in given. For supermodular models this is a cheap local
// computation.
type ConditionalDecider interface {
	DecideGiven(p Pair, given PairSet) bool
}

// ProbeFilter is an optional matcher extension used by COMPUTEMAXIMAL
// (Algorithm 2) to skip candidate pairs that can never participate in a
// useful maximal message — typically pairs whose score stays negative
// under *any* evidence, or pairs with no interactions (their singleton
// messages are subsumed by the evidence-driven re-evaluation SMP/MMP
// already perform). Skipping such probes changes no output, only cost:
// the probe set shrinks from k² to the pairs that can actually entail or
// be entailed.
type ProbeFilter interface {
	Probeable(p Pair) bool
}

// DeltaScorer lets a Probabilistic matcher evaluate the promotion test of
// Algorithm 3 Step 7 incrementally: ScoreSetDelta returns
// LogScore(s ∪ add) − LogScore(s) without materializing the union. For
// pairwise models this is O(|add|·deg) instead of O(|s|), which is what
// keeps MMP's "computing PE(S) is very cheap" premise true at scale.
type DeltaScorer interface {
	ScoreSetDelta(add []Pair, s PairSet) float64
}

// MaximalMessenger lets a matcher supply a specialized implementation of
// COMPUTEMAXIMAL (Algorithm 2). The semantics must match the generic
// probe-based construction: msgs are the connected components of the
// mutual-entailment graph over unmatched candidate pairs (singleton
// components may be omitted — the schedulers drop them). calls reports
// the number of conditioned inference runs for accounting.
type MaximalMessenger interface {
	MaximalMessages(entities []EntityID, mPlus, neg, base PairSet) (msgs [][]Pair, calls int)
}

// MatcherFunc adapts a function to the Matcher interface with candidate
// enumeration delegated to a second function. Intended for tests.
type MatcherFunc struct {
	MatchFn      func(entities []EntityID, pos, neg PairSet) PairSet
	CandidatesFn func(entities []EntityID) []Pair
}

// Match implements Matcher.
func (m MatcherFunc) Match(entities []EntityID, pos, neg PairSet) PairSet {
	return m.MatchFn(entities, pos, neg)
}

// Candidates implements Matcher.
func (m MatcherFunc) Candidates(entities []EntityID) []Pair {
	if m.CandidatesFn == nil {
		return nil
	}
	return m.CandidatesFn(entities)
}
