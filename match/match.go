// Package match is the public contract between the cem framework and
// black-box entity matchers. Third-party matchers implement the Matcher
// (Type-I) or Probabilistic (Type-II) interfaces defined here — using
// only this package and the root cem package, never repro/internal/… —
// and are plugged into the framework with cem.RegisterMatcher.
//
// The types are aliases of the framework's internal core types, so a
// matcher written against this package satisfies the engine's interfaces
// directly, with no adaptation layer and no copying at the boundary.
package match

import (
	"repro/internal/bib"
	"repro/internal/canopy"
	"repro/internal/core"
	"repro/internal/rules"
	"repro/internal/similarity"
)

// EntityID identifies an entity. Ids are dense in [0, n).
type EntityID = core.EntityID

// Pair is an unordered entity pair, normalized so A < B (build with
// MakePair).
type Pair = core.Pair

// PairKey is a pair packed into one uint64 (A high, B low): the set
// representation and the stable sort order of the engine. Ranging over a
// PairSet yields PairKeys; unpack with PairKey.Pair or iterate pairs
// directly with PairSet.All.
type PairKey = core.PairKey

// PairSet is a set of normalized pairs on packed keys (build with
// NewPairSet; iterate with All or Sorted).
type PairSet = core.PairSet

// Cover is a set of neighborhoods whose union is the entity set (§4).
type Cover = core.Cover

// ScopePreparer is the optional matcher extension the schedulers invoke
// once per run with the run's cover, letting a matcher precompute
// per-neighborhood state (the cover and the model are immutable during a
// run; only evidence grows). Matchers must keep answering correctly for
// entity slices outside the prepared cover.
type ScopePreparer = core.ScopePreparer

// DenseMatcher is the optional, output-neutral matcher extension that
// publishes the matcher's candidate numbering (its CandidateTable) so the
// engine can carry evidence as a bitset over those ids and exchange match
// sets as id lists instead of hashing pairs. Both built-in matchers
// implement it; a matcher without it runs through the same engine on
// PairSets.
type DenseMatcher = core.DenseMatcher

// CandidateTable is the ground candidate relation of one experiment: every
// match variable, numbered in strictly ascending PairKey order and
// validated where it was built, with the pair → id search (Find), the
// per-neighborhood scoped ids of the prepared cover (PrepareCover,
// ScopeIDs, Candidates) and the coauthor support join (Supports). An
// experiment builds one and hands it to every matcher factory as
// MatcherContext.Table; a DenseMatcher adopts it rather than numbering
// pairs itself.
type CandidateTable = core.CandidateTable

// NewCandidateTable numbers pairs over the entities [0, n) — sorting a
// copy when they are not in ascending order — and refuses a pair that is
// not normalized, has an endpoint outside [0, n) or occurs twice.
func NewCandidateTable(n int, pairs []Pair) (*CandidateTable, error) {
	return core.NewCandidateTable(n, pairs)
}

// DenseProbabilistic is DenseMatcher for a Type-II matcher: the id forms
// of the two operations MMP adds — one evaluation's match set and maximal
// messages in a single MatchMessagesIDs call, and the promotion test's
// score delta.
type DenseProbabilistic = core.DenseProbabilistic

// MessageIDs is a list of maximal messages as candidate ids in one CSR
// (message i is IDs[Ends[i-1]:Ends[i]]): what MatchMessagesIDs appends to.
type MessageIDs = core.MessageIDs

// Evidence is a set of pairs in the engine's dense form: one bit per id
// of a DenseMatcher's candidate table plus an overflow PairSet for pairs
// outside it. A DenseMatcher reads it with HasID.
type Evidence = core.Evidence

// MatchByIDs is the PairSet-form Match of a DenseMatcher, by way of its
// MatchIDs: implement Match as `return match.MatchByIDs(m, entities, pos,
// neg)` and keep one inference core.
func MatchByIDs(m DenseMatcher, entities []EntityID, pos, neg PairSet) PairSet {
	return core.MatchByIDs(m, entities, pos, neg)
}

// Matcher is the Type-I black-box abstraction (Definition 1): a
// deterministic function E(E, V+, V−) from an entity subset and
// positive/negative evidence to a set of matches. Implementations must
// be safe for concurrent Match/Candidates calls — the engine evaluates
// independent neighborhoods in parallel.
type Matcher = core.Matcher

// Probabilistic is the Type-II abstraction (Definition 5): a Matcher
// backed by a probability distribution over match sets, exposing
// LogScore. Required by the MMP scheme and the UB oracle.
type Probabilistic = core.Probabilistic

// ConditionalDecider is the optional extension required by the UB
// oracle (§6.1).
type ConditionalDecider = core.ConditionalDecider

// MatcherFunc adapts plain functions to the Matcher interface — the
// quickest way to register a custom black box.
type MatcherFunc = core.MatcherFunc

// Result is the raw outcome of one scheme run.
type Result = core.Result

// RunStats instruments a run (matcher calls, evaluations, messages,
// promoted sets, wall time, …).
type RunStats = core.RunStats

// CacheReport accounts a matcher's cross-neighborhood verdict memo over
// one run (hits, misses, invalidations); see RunStats.Cache.
type CacheReport = core.CacheReport

// CacheReporter is the optional matcher extension exposing cumulative
// verdict-memo counters; schemes report the per-run delta in
// RunStats.Cache.
type CacheReporter = core.CacheReporter

// ProgressEvent is delivered to progress callbacks after every
// neighborhood evaluation.
type ProgressEvent = core.ProgressEvent

// Backend executes the rounds of a message-passing scheme: it owns the
// Map side (where each round's active neighborhoods are evaluated),
// while the engine's RoundDriver owns the central Reduce (evidence
// merge, message promotion, re-activation, checkpointing). Built-in
// backends: the shared-memory worker pool (default) and the
// shard-partitioned backend exchanging serialized evidence deltas.
// A run takes one through cem.WithBackend (cem.NewShardedNetBackend and
// cem.WithShardCount build the sharded one) and the pool otherwise;
// custom backends drive the RoundDriver's Evaluate/Reduce/EndRound cycle.
type Backend = core.Backend

// RoundPlan is the immutable description of a round-based run handed to
// a Backend (scheme, cover, matcher, configuration).
type RoundPlan = core.RoundPlan

// RoundDriver is the engine's central reduce state, driven round by
// round by a Backend.
type RoundDriver = core.RoundDriver

// Job is the outcome of one neighborhood evaluation, produced by
// RoundDriver.Evaluate and consumed by RoundDriver.Reduce.
type Job = core.Job

// Dataset is a bibliographic corpus: papers, author references, and
// (for synthetic corpora) ground-truth author ids.
type Dataset = bib.Dataset

// Paper is one publication with the ids of its author references.
type Paper = bib.Paper

// Reference is one author occurrence on a paper; True carries the
// ground-truth author id (−1 when unknown).
type Reference = bib.Reference

// Level grades the string similarity of a candidate pair, 1–3 with 3
// strongest; LevelNone means "not a candidate".
type Level = similarity.Level

// Similarity levels of candidate pairs.
const (
	LevelNone   = similarity.LevelNone
	LevelWeak   = similarity.LevelWeak
	LevelMedium = similarity.LevelMedium
	LevelStrong = similarity.LevelStrong
)

// Rule is one clause of a Dedupalog*-style monotone rule program: a
// pair at exactly Level matches once at least MinCoauthorMatches of its
// coauthor pairs are matched.
type Rule = rules.Rule

// Candidate is one in-scope matching decision handed to matcher
// factories: a normalized reference pair (Pair) plus its similarity level
// (Level) — the pair as blocking emits it.
type Candidate = canopy.SimilarPair

// MakePair returns the normalized pair {a, b}.
func MakePair(a, b EntityID) Pair { return core.MakePair(a, b) }

// NewPairSet returns an empty set, optionally seeded with pairs.
func NewPairSet(pairs ...Pair) PairSet { return core.NewPairSet(pairs...) }
