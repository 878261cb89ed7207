package cem

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/canopy"
	"repro/internal/core"
	"repro/internal/mln"
	emnet "repro/internal/net"
	"repro/internal/rules"
	"repro/match"
)

// MatcherContext is the per-experiment input handed to matcher
// factories: the dataset, the in-scope matching decisions (candidate
// pairs with similarity levels), their table, and the setup options.
// Factories must not mutate the context's slices.
//
// Table numbers the candidates: Candidates[i] is Table's pair i. An
// Experiment builds it once and every factory receives the same one, so
// matchers that adopt it (both built-ins, every rules program) share its
// ids, its cover scoping and its coauthor join. A context assembled by
// hand may leave it nil; the built-in factories then build a table of
// their own from Candidates.
type MatcherContext struct {
	Dataset    *match.Dataset
	Candidates []match.Candidate
	Table      *match.CandidateTable
	Options    Options
}

// grounding returns the context's candidate table with the level column in
// table order — what a matcher is ground over. With Table set that is the
// experiment's table and the levels of Candidates as they stand; without,
// a table built (and validated) from Candidates, in any order.
func (mc MatcherContext) grounding() (*match.CandidateTable, []match.Level, error) {
	t, cands := mc.Table, mc.Candidates
	if t == nil {
		var err error
		if t, cands, err = tableOf(mc.Dataset, cands); err != nil {
			return nil, nil, err
		}
	}
	return t, canopy.Levels(cands), nil
}

// tableOf builds the candidate table of a dataset's candidates and
// returns them in table order.
func tableOf(d *match.Dataset, cands []match.Candidate) (*match.CandidateTable, []match.Candidate, error) {
	return core.TableOf(d.NumRefs(), cands, func(c match.Candidate) match.Pair { return c.Pair })
}

// MatcherFactory grounds a black-box matcher for one experiment. The
// returned matcher must satisfy match.Matcher; matchers additionally
// implementing match.Probabilistic unlock the MMP scheme, and
// match.ConditionalDecider unlocks the UB oracle.
type MatcherFactory func(MatcherContext) (match.Matcher, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]MatcherFactory{}
)

// RegisterMatcher makes a matcher available to every Experiment under
// the given name. It is typically called from an init function. It
// panics if name is empty, factory is nil, or name is already
// registered (like database/sql.Register).
func RegisterMatcher(name string, factory MatcherFactory) {
	if err := tryRegisterMatcher(name, factory); err != nil {
		panic("cem: " + err.Error())
	}
}

// tryRegisterMatcher is the error-returning registration path, used for
// matchers that arrive from user input (rules files) rather than init
// functions.
func tryRegisterMatcher(name string, factory MatcherFactory) error {
	if name == "" {
		return fmt.Errorf("RegisterMatcher with empty name")
	}
	if factory == nil {
		return fmt.Errorf("RegisterMatcher with nil factory for %s", name)
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("matcher %q is already registered", name)
	}
	registry[name] = factory
	return nil
}

// Matchers returns the sorted names of all registered matchers.
func Matchers() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// lookupMatcher resolves a registered factory.
func lookupMatcher(name string) (MatcherFactory, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	f, ok := registry[name]
	return f, ok
}

// NewShardedNetBackend returns the sharded execution backend
// (WithShardCount(k) is shorthand for it with no addresses): a
// coordinator owning the central reduce plus k workers, each evaluating
// neighborhood i mod k against a private evidence replica and speaking
// the wire codec over framed streams. With no addrs the
// workers run in-process over pipes (every byte still crosses the codec),
// one per CPU for k < 1; addrs attach cmd/emworker processes instead, one
// slot per address ("host:port" or "unix:/path.sock"), and k is ignored.
// Either way the coordinator supervises the fleet — heartbeats, round
// deadlines, bounded retries with backoff — and reassigns a dead
// worker's partitions to the survivors, so losing a worker degrades
// throughput but never the output: the result is identical to the pool
// backend for every fleet shape and every fault schedule
// (RunStats.Reassignments and friends record what the supervision
// absorbed). A worker whose matcher label differs from the run's is
// refused at the handshake.
func NewShardedNetBackend(k int, addrs ...string) match.Backend {
	return &emnet.Backend{Workers: k, Addrs: addrs}
}

// The built-in matchers register through the same public path as
// third-party ones.
func init() {
	RegisterMatcher(MatcherMLN, func(mc MatcherContext) (match.Matcher, error) {
		t, levels, err := mc.grounding()
		if err != nil {
			return nil, err
		}
		return mln.Ground(mc.Dataset, t, levels, mln.PaperWeights())
	})
	RegisterMatcher(MatcherRules, func(mc MatcherContext) (match.Matcher, error) {
		t, levels, err := mc.grounding()
		if err != nil {
			return nil, err
		}
		return rules.Ground(mc.Dataset, t, levels, nil, rules.PaperRules())
	})
}
