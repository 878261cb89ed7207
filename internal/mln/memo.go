package mln

import (
	"bytes"
	"slices"
	"sync"

	"repro/internal/core"
)

// This file implements the cross-neighborhood verdict memoization layer.
// Canopies overlap heavily, so the same neighborhood is re-activated many
// times per run while its *relevant* evidence — the read set of
// buildLocal, i.e. the states of the in-scope candidate pairs plus the
// boundary pairs — often has not changed, and every run of an experiment
// starts from empty evidence again, passing through states an earlier run
// already solved. The ground model and the cover are immutable per run,
// and the match set is a deterministic function of (skeleton, read-set
// states), so each prepared scope caches its memoWays most recent MatchIDs
// verdicts keyed by exactly those states. MMP's fused evaluation
// (MatchMessagesIDs) does not take part: its verdicts rarely repeat, and
// storing them cost more than the hits saved.
//
// The cache is self-validating: every lookup compares the read set
// byte-for-byte against each cached way. A hit therefore *proves* the
// cached verdict is the one recomputation would produce — output stays
// byte-identical with memoization on, regardless of caller, scheme,
// evidence direction, or concurrency. SetWeights empties every way (the
// skeletons are weight-independent; verdicts are not).

const memoWays = 4

// memoWay is one cached verdict, mutated in place under its scope's lock
// so a store recycles the slice capacity of the way it overwrites.
// states is the key: the read set as readSet fills it. match is the
// MatchIDs output. used is the scope clock at the last hit or store; 0
// marks an empty way.
type memoWay struct {
	states []uint8
	match  []int32
	used   uint64
}

// scopeMemo is one prepared scope's memo: up to memoWays ways, allocated
// as they are first needed.
type scopeMemo struct {
	mu    sync.Mutex
	clock uint64
	ways  []memoWay
}

// way returns the valid way holding key, or nil.
func (e *scopeMemo) way(key []uint8) *memoWay {
	for i := range e.ways {
		if w := &e.ways[i]; w.used != 0 && bytes.Equal(w.states, key) {
			return w
		}
	}
	return nil
}

// touch marks w the most recently used way.
func (e *scopeMemo) touch(w *memoWay) {
	e.clock++
	w.used = e.clock
}

// victim returns the way a store of a new key overwrites: an empty way —
// a new one while fewer than memoWays exist — else the least recently
// used one.
func (e *scopeMemo) victim() (w *memoWay) {
	for i := range e.ways { // an empty way has used 0, the minimum
		if v := &e.ways[i]; w == nil || v.used < w.used {
			w = v
		}
	}
	if (w == nil || w.used != 0) && len(e.ways) < memoWays {
		e.ways = append(e.ways, memoWay{})
		w = &e.ways[len(e.ways)-1]
	}
	return w
}

// memoLookup returns a copy of the match set the scope cached under key
// (ways are overwritten in place by later stores), counting a hit; without
// one it counts an invalidation when the scope has valid ways, else a
// miss.
func (m *Matcher) memoLookup(sc *scope, key []uint8) ([]int32, bool) {
	e := &sc.memo
	e.mu.Lock()
	defer e.mu.Unlock()
	if w := e.way(key); w != nil {
		e.touch(w)
		m.cacheHits.Add(1)
		return slices.Clone(w.match), true
	}
	for i := range e.ways {
		if e.ways[i].used != 0 {
			m.cacheInvals.Add(1)
			return nil, false
		}
	}
	m.cacheMisses.Add(1)
	return nil, false
}

// memoStore records a freshly computed match set under key: on the way
// already holding key (a concurrent store), else on victim().
func (m *Matcher) memoStore(sc *scope, key []uint8, out []int32) {
	e := &sc.memo
	e.mu.Lock()
	w := e.way(key)
	if w == nil {
		w = e.victim()
		w.states = append(w.states[:0], key...)
		w.match = append(w.match[:0], out...)
	}
	e.touch(w)
	e.mu.Unlock()
}

// SetMemoization enables or disables the verdict memo (enabled by
// default). Like SetWeights it is NOT safe for concurrent use with
// Match; it exists so differential tests can hold the memoized and
// unmemoized paths side by side.
func (m *Matcher) SetMemoization(on bool) { m.memoOff = !on }

// invalidateMemos empties every way of the prepared cover, counting one
// invalidation per valid way (capacity is kept for the next store).
func (m *Matcher) invalidateMemos() {
	p := m.prep.Load()
	if p == nil {
		return
	}
	for i := range p.skel {
		e := &p.skel[i].memo
		e.mu.Lock()
		for j := range e.ways {
			if w := &e.ways[j]; w.used != 0 {
				w.used = 0
				m.cacheInvals.Add(1)
			}
		}
		e.mu.Unlock()
	}
}

// CacheStats implements core.CacheReporter: cumulative verdict-memo
// counters since construction. MatchIDs — so Match — consults the memo
// once per call on a prepared neighborhood; MatchMessagesIDs and
// MaximalMessages never do, so an MMP run reports no lookups. Per
// lookup: a hit when some way holds the read set, an invalidation when
// the scope has valid ways but none holds it, a miss when it has none.
func (m *Matcher) CacheStats() core.CacheReport {
	return core.CacheReport{
		Hits:          m.cacheHits.Load(),
		Misses:        m.cacheMisses.Load(),
		Invalidations: m.cacheInvals.Load(),
	}
}

var _ core.CacheReporter = (*Matcher)(nil)
