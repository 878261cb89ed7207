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
// and the match set and maximal messages are deterministic functions of
// (skeleton, read-set states), so each prepared scope caches its memoWays
// most recent verdicts keyed by a fingerprint of exactly those states.
//
// The cache is self-validating: every lookup recomputes the fingerprint
// and compares it byte-for-byte against each cached way. A hit therefore
// *proves* the cached verdict is the one recomputation would produce —
// output stays byte-identical with memoization on, regardless of caller,
// scheme, evidence direction, or concurrency. SetWeights empties every
// way (the skeletons are weight-independent; verdicts are not).

const memoWays = 4

// memoWay is one cached verdict, mutated in place under its scope's lock
// so a store recycles the slice capacity of the way it overwrites (an
// immutable entry per store costs three allocations per evaluation).
// states is the fingerprint: the evidence state of every scoped candidate
// id (in skeleton order) followed by every boundary partner (in
// boundary-edge order). match is the MatchIDs output. msgs/msgCalls are
// the maximal messages under that match set (Algorithm 3 Step 5) as a CSR
// of candidate ids, and their probe count, when msgsValid: a store copies
// them in over the way's own capacity, and a hit appends them to the
// caller's list. used is the scope clock at the last hit or store; 0
// marks an empty way.
type memoWay struct {
	states    []uint8
	match     []int32
	msgs      core.MessageIDs
	msgCalls  int
	msgsValid bool
	used      uint64
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

// victim returns the way a store of a new fingerprint overwrites: an empty
// way — a new one while fewer than memoWays exist — else the least
// recently used one.
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

// memoKey reads the scope's read set into ws.fp — the evidence state of
// every scoped id, then of every boundary partner, which is all that
// buildLocal reads — and returns it as the memo key, or nil when
// memoization does not apply (ephemeral scope or memoization disabled).
// The returned slice aliases the workspace; copy before retaining.
func (m *Matcher) memoKey(sc *scope, pos, neg *core.Evidence, ws *workspace) []uint8 {
	n := len(sc.ids)
	ws.fp = grow(ws.fp, n+len(sc.boundary))
	for i, id := range sc.ids {
		ws.fp[i] = evidenceState(id, pos, neg)
	}
	for j, be := range sc.boundary {
		ws.fp[n+j] = evidenceState(be.other, pos, neg)
	}
	if sc == &ws.eph || m.memoOff {
		return nil
	}
	return ws.fp
}

// memoEntry returns the scope's memo, allocating it on first use. The
// pointer is install-once (CAS), so losers of the race adopt the winner's
// memo; all field access happens under its lock.
func (sc *scope) memoEntry() *scopeMemo {
	if e := sc.memo.Load(); e != nil {
		return e
	}
	e := &scopeMemo{}
	if !sc.memo.CompareAndSwap(nil, e) {
		e = sc.memo.Load()
	}
	return e
}

// lookup returns the way of e (locked by the caller; nil when the scope
// never stored) holding key, marked used. Without one it counts an
// invalidation when e has valid ways, else a miss; the caller counts a
// found way.
func (m *Matcher) lookup(e *scopeMemo, key []uint8) *memoWay {
	if e != nil {
		if w := e.way(key); w != nil {
			e.touch(w)
			return w
		}
		for i := range e.ways {
			if e.ways[i].used != 0 {
				m.cacheInvals.Add(1)
				return nil
			}
		}
	}
	m.cacheMisses.Add(1)
	return nil
}

// memoLookup consults the scope's cached verdicts under the given
// fingerprint — the match set, and with msgs the messages too — counting
// lookups consultations: the way's (a hit, a miss or an invalidation) and
// for each further one a hit when the way also holds a message verdict,
// else a miss. A hit returns a copy of the match set (ways are
// overwritten in place by later stores) and appends the cached messages
// to msgs.
func (m *Matcher) memoLookup(sc *scope, key []uint8, msgs *core.MessageIDs, lookups int) ([]int32, int, bool) {
	e := sc.memo.Load()
	if e != nil {
		e.mu.Lock()
		defer e.mu.Unlock()
	}
	w := m.lookup(e, key) // counts the first consultation unless it finds a way
	n := int64(lookups - 1)
	switch {
	case w == nil:
		m.cacheMisses.Add(n)
		return nil, 0, false
	case msgs != nil && !w.msgsValid:
		m.cacheHits.Add(n)
		m.cacheMisses.Add(1)
		return nil, 0, false
	case msgs != nil:
		msgs.AppendFrom(&w.msgs, 0)
	}
	m.cacheHits.Add(n + 1)
	return slices.Clone(w.match), w.msgCalls, true
}

// memoStore records a freshly computed verdict — the match set and, when
// msgs is not nil, the messages from index from on with their probe
// count — on the way already holding key (a concurrent store, or a match
// verdict stored without messages), else on victim().
func (m *Matcher) memoStore(sc *scope, key []uint8, out []int32, msgs *core.MessageIDs, from, calls int) {
	e := sc.memoEntry()
	e.mu.Lock()
	w := e.way(key)
	if w == nil {
		w = e.victim()
		w.states = append(w.states[:0], key...)
		w.match = append(w.match[:0], out...)
		w.msgsValid = false
	}
	if msgs != nil {
		w.msgs.Reset()
		w.msgs.AppendFrom(msgs, from)
		w.msgCalls, w.msgsValid = calls, true
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
		e := p.skel[i].memo.Load()
		if e == nil {
			continue
		}
		e.mu.Lock()
		for j := range e.ways {
			if w := &e.ways[j]; w.used != 0 {
				w.used, w.msgsValid = 0, false
				m.cacheInvals.Add(1)
			}
		}
		e.mu.Unlock()
	}
}

// CacheStats implements core.CacheReporter: cumulative verdict-memo
// counters since construction. Match and MaximalMessages each consult
// the memo once per call and MatchMessagesIDs twice, so one fully
// memoized MMP evaluation reports two hits. Per lookup: a hit when some
// way holds the fingerprint, an invalidation when the scope has valid
// ways but none holds it, a miss when it has none (or, for a message
// lookup, when the way holding it has no message verdict).
func (m *Matcher) CacheStats() core.CacheReport {
	return core.CacheReport{
		Hits:          m.cacheHits.Load(),
		Misses:        m.cacheMisses.Load(),
		Invalidations: m.cacheInvals.Load(),
	}
}

var _ core.CacheReporter = (*Matcher)(nil)
