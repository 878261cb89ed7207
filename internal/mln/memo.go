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
// boundary pairs — often has not changed (Cover.Affected over-approximates
// re-activation, and warm-started continuations re-seed neighborhoods
// whose fixpoint is already known). The ground model and the cover are
// immutable per run, and Match / MaximalMessages are deterministic
// functions of (skeleton, read-set states), so each prepared scope caches
// its last verdict keyed by a fingerprint of exactly those states.
//
// The cache is self-validating: every lookup recomputes the fingerprint
// (the same per-pair evidence translation buildLocal would perform — the
// dense state vector is shared, so a miss pays nothing twice) and
// compares it byte-for-byte against the cached entry. A hit therefore
// *proves* the cached verdict is the one recomputation would produce —
// output stays byte-identical with memoization on, regardless of caller,
// scheme, evidence direction, or concurrency. Entries are overwritten in
// place when an in-scope or boundary pair's evidence state changes (an
// invalidation) and marked stale wholesale by SetWeights (the skeletons
// are weight-independent; verdicts are not).

// scopeMemo is the cached verdict of one prepared scope. The entry is
// allocated once per scope and then mutated in place under mu, recycling
// its slice capacity across stores — schedulers churn evidence on every
// visit, and an immutable entry-per-store design costs three heap
// allocations per evaluation on those paths for verdicts that are often
// never reused. states is the read-set fingerprint: the dense evidence
// state of every scoped candidate id (in skeleton order) followed by
// every boundary partner (in boundary-edge order). match is the cached
// MatchIDs output (ascending ids); valid distinguishes a stored
// verdict from a never-filled or weight-invalidated entry. msgs/msgCalls
// cache the MaximalMessages verdict for the same fingerprint, valid only
// when the caller's base equals match (the protocol of Algorithm 3
// Step 5) — msgsValid distinguishes "not computed yet" from "computed,
// empty".
type scopeMemo struct {
	mu        sync.Mutex
	valid     bool
	states    []uint8
	match     []int32
	msgs      [][]core.Pair
	msgCalls  int
	msgsValid bool
}

// fingerprint translates the scope's read set into ws.fp and returns it.
// The per-pair translation shares the workspace's dense state vector with
// buildLocal, so on a miss the subsequent rebuild pays no second lookup.
// The returned slice aliases the workspace; copy before retaining.
func (m *Matcher) fingerprint(sc *scope, pos, neg *core.Evidence, ws *workspace) []uint8 {
	n := len(sc.ids)
	ws.fp = grow(ws.fp, n+len(sc.boundary))
	for i, id := range sc.ids {
		ws.fp[i] = ws.fillState(id, pos, neg)
	}
	for j, be := range sc.boundary {
		ws.fp[n+j] = ws.fillState(be.other, pos, neg)
	}
	return ws.fp
}

// memoKey returns the scope's read-set fingerprint, or nil when
// memoization does not apply (ephemeral scope or memoization disabled).
// The returned slice aliases the workspace; copy before retaining.
func (m *Matcher) memoKey(sc *scope, pos, neg *core.Evidence, ws *workspace) []uint8 {
	if sc == &ws.eph || m.memoOff {
		return nil
	}
	return m.fingerprint(sc, pos, neg, ws)
}

// memoEntry returns the scope's memo entry, allocating it on first use.
// The entry pointer is install-once (CAS), so losers of the race adopt
// the winner's entry; all field access happens under the entry lock.
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

// memoMatch consults the scope's cached Match verdict under the given
// fingerprint, counting the hit, miss, or invalidation. A hit returns a
// copy: the entry is overwritten in place by later stores.
func (m *Matcher) memoMatch(sc *scope, key []uint8) ([]int32, bool) {
	e := sc.memo.Load()
	if e == nil {
		m.cacheMisses.Add(1)
		return nil, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case !e.valid:
		m.cacheMisses.Add(1)
	case !bytes.Equal(e.states, key):
		m.cacheInvals.Add(1)
	default:
		m.cacheHits.Add(1)
		return slices.Clone(e.match), true
	}
	return nil, false
}

// memoStoreMatch records a freshly computed Match verdict, recycling the
// entry's slice capacity. The message cache is dropped: it was computed
// for the previous fingerprint.
func (m *Matcher) memoStoreMatch(sc *scope, key []uint8, out []int32) {
	e := sc.memoEntry()
	e.mu.Lock()
	e.states = append(e.states[:0], key...)
	e.match = append(e.match[:0], out...)
	e.valid = true
	e.msgsValid = false
	e.mu.Unlock()
}

// memoStoreMsgs records a freshly computed MaximalMessages verdict on an
// entry whose Match verdict for the same fingerprint is already cached.
// Re-validated under the lock: a concurrent store for different evidence
// wins and the message verdict is discarded.
func (m *Matcher) memoStoreMsgs(e *scopeMemo, key []uint8, msgs [][]core.Pair, calls int) {
	e.mu.Lock()
	if e.valid && bytes.Equal(e.states, key) {
		e.msgs = copyMsgsInto(e.msgs, msgs)
		e.msgCalls = calls
		e.msgsValid = true
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

// invalidateMemos marks every cached verdict of the prepared cover stale
// (capacity is kept for the next store).
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
		if e.valid {
			e.valid = false
			e.msgsValid = false
			m.cacheInvals.Add(1)
		}
		e.mu.Unlock()
	}
}

// CacheStats implements core.CacheReporter: cumulative verdict-memo
// counters since construction. Match and MaximalMessages each consult
// the table once per call, so one fully memoized MMP evaluation reports
// two hits.
func (m *Matcher) CacheStats() core.CacheReport {
	return core.CacheReport{
		Hits:          m.cacheHits.Load(),
		Misses:        m.cacheMisses.Load(),
		Invalidations: m.cacheInvals.Load(),
	}
}

var _ core.CacheReporter = (*Matcher)(nil)
