package core

import "slices"

// CoverScopes is what is kept per prepared cover: one skeleton of type S
// for every non-empty neighborhood, found again from the entity slice a
// scheduler passes to Match or Candidates. CandidateTable.PrepareCover
// builds the one the built-in matchers share (S = Scope). A nil
// *CoverScopes is an empty preparation, so it can sit in an
// atomic.Pointer and be consulted before the first PrepareCover.
type CoverScopes[S any] struct {
	cover *Cover
	byKey map[scopeKey]preparedScope[S]
}

// scopeKey identifies a cover neighborhood by the identity of its entity
// slice — the schedulers pass Cover.Sets[id] through unchanged, so the
// backing array's first element plus the length pin the neighborhood
// without hashing its contents.
type scopeKey struct {
	first *EntityID
	n     int
}

// preparedScope pins the membership a skeleton was built from (a private
// copy — never an alias of the cover's slice) so lookups can verify a key
// collision away.
type preparedScope[S any] struct {
	ents []EntityID
	skel *S
}

// BuildCoverScopes calls build once per non-empty neighborhood of c, in
// cover order, and indexes the skeletons it returns.
func BuildCoverScopes[S any](c *Cover, build func(set []EntityID) *S) *CoverScopes[S] {
	cs := &CoverScopes[S]{cover: c, byKey: make(map[scopeKey]preparedScope[S], c.Len())}
	for _, set := range c.Sets {
		if len(set) == 0 {
			continue
		}
		cs.byKey[scopeKey{&set[0], len(set)}] = preparedScope[S]{ents: slices.Clone(set), skel: build(set)}
	}
	return cs
}

// Covers reports whether cs is the preparation of exactly this cover —
// the idempotence test of PrepareCover.
func (cs *CoverScopes[S]) Covers(c *Cover) bool { return cs != nil && cs.cover == c }

// Lookup returns the skeleton prepared for a cover neighborhood, or nil
// when the entity slice is not part of the prepared cover. The identity
// key is only a fast index: a slice whose backing array was recycled by a
// cover rebuild can collide with a prior neighborhood's key (same
// first-element address, same length, different membership), so the
// pinned membership is verified before the skeleton is trusted — a
// mismatch sends the matcher down its always-correct ephemeral path
// instead of silently evaluating against a stale skeleton.
func (cs *CoverScopes[S]) Lookup(entities []EntityID) *S {
	if cs == nil || len(entities) == 0 {
		return nil
	}
	ps, ok := cs.byKey[scopeKey{&entities[0], len(entities)}]
	if !ok || !slices.Equal(ps.ents, entities) {
		return nil
	}
	return ps.skel
}
