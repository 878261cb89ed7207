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
// and Match / MaximalMessages are deterministic functions of (skeleton,
// read-set states), so each prepared scope caches its memoWays most
// recent verdicts keyed by a fingerprint of exactly those states.
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
// the MaximalMessages verdict for base = match (Algorithm 3 Step 5), when
// msgsValid. used is the scope clock at the last hit or store; 0 marks an
// empty way.
type memoWay struct {
	states    []uint8
	match     []int32
	msgs      [][]core.Pair
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

// memoKey returns the scope's read-set fingerprint in ws.fp, or nil when
// memoization does not apply (ephemeral scope or memoization disabled).
// It reads the evidence bits directly, so a hit leaves the workspace's
// state vector untouched; on a miss buildLocal fills it as usual. The
// returned slice aliases the workspace; copy before retaining.
func (m *Matcher) memoKey(sc *scope, pos, neg *core.Evidence, ws *workspace) []uint8 {
	if sc == &ws.eph || m.memoOff {
		return nil
	}
	n := len(sc.ids)
	ws.fp = grow(ws.fp, n+len(sc.boundary))
	for i, id := range sc.ids {
		ws.fp[i] = evidenceState(id, pos, neg)
	}
	for j, be := range sc.boundary {
		ws.fp[n+j] = evidenceState(be.other, pos, neg)
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

// memoMatch consults the scope's cached Match verdicts under the given
// fingerprint, counting the hit, miss, or invalidation. A hit returns a
// copy: ways are overwritten in place by later stores.
func (m *Matcher) memoMatch(sc *scope, key []uint8) ([]int32, bool) {
	e := sc.memo.Load()
	if e != nil {
		e.mu.Lock()
		defer e.mu.Unlock()
	}
	w := m.lookup(e, key)
	if w == nil {
		return nil, false
	}
	m.cacheHits.Add(1)
	return slices.Clone(w.match), true
}

// memoStoreMatch records a freshly computed Match verdict: on the way
// already holding key (a concurrent store), else on victim().
func (m *Matcher) memoStoreMatch(sc *scope, key []uint8, out []int32) {
	e := sc.memoEntry()
	e.mu.Lock()
	w := e.way(key)
	if w == nil {
		w = e.victim()
		w.states = append(w.states[:0], key...)
		w.match = append(w.match[:0], out...)
		w.msgsValid = false
	}
	e.touch(w)
	e.mu.Unlock()
}

// memoMsgs is memoMatch for MaximalMessages under base, returning a deep
// copy on a hit. Otherwise store reports whether the verdict is
// memoizable: a way holds key and base is its match (the Step-5 caller;
// any other base changes the probe set).
func (m *Matcher) memoMsgs(sc *scope, key []uint8, base []int32) (msgs [][]core.Pair, calls int, hit, store bool) {
	e := sc.memo.Load()
	if e != nil {
		e.mu.Lock()
		defer e.mu.Unlock()
	}
	w := m.lookup(e, key)
	switch {
	case w == nil:
		return nil, 0, false, false
	case w.msgsValid && slices.Equal(base, w.match):
		m.cacheHits.Add(1)
		return copyMsgs(w.msgs), w.msgCalls, true, false
	}
	m.cacheMisses.Add(1)
	return nil, 0, false, slices.Equal(base, w.match)
}

// memoStoreMsgs records a freshly computed MaximalMessages verdict on the
// way that caches the Match verdict for the same fingerprint. Re-found
// under the lock: when a concurrent store has evicted that way, the
// message verdict is discarded.
func (m *Matcher) memoStoreMsgs(sc *scope, key []uint8, msgs [][]core.Pair, calls int) {
	e := sc.memo.Load()
	e.mu.Lock()
	if w := e.way(key); w != nil {
		w.msgs = copyMsgsInto(w.msgs, msgs)
		w.msgCalls = calls
		w.msgsValid = true
	}
	e.mu.Unlock()
}

// copyMsgs deep-copies a message list so cached verdicts never alias
// caller-visible slices (callers hand messages to stores that hold them).
func copyMsgs(msgs [][]core.Pair) [][]core.Pair {
	if len(msgs) == 0 {
		return nil
	}
	out := make([][]core.Pair, len(msgs))
	for i, msg := range msgs {
		out[i] = slices.Clone(msg)
	}
	return out
}

// copyMsgsInto deep-copies src into dst, recycling dst's outer and inner
// slice capacity.
func copyMsgsInto(dst, src [][]core.Pair) [][]core.Pair {
	old := dst[:cap(dst)]
	dst = dst[:0]
	for i, msg := range src {
		var inner []core.Pair
		if i < len(old) {
			inner = old[i][:0]
		}
		dst = append(dst, append(inner, msg...))
	}
	return dst
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
// the memo once per call, so one fully memoized MMP evaluation reports
// two hits. Per lookup: a hit when some way holds the fingerprint, an
// invalidation when the scope has valid ways but none holds it, a miss
// when it has none (or, for MaximalMessages, when the way holding it has
// no message verdict for the caller's base).
func (m *Matcher) CacheStats() core.CacheReport {
	return core.CacheReport{
		Hits:          m.cacheHits.Load(),
		Misses:        m.cacheMisses.Load(),
		Invalidations: m.cacheInvals.Load(),
	}
}

var _ core.CacheReporter = (*Matcher)(nil)
