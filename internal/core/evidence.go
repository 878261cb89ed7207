package core

// EvidenceStore is the persistence hook the round driver mirrors its
// accumulated evidence into — the two methods of a store.Store the
// engine calls, declared here so a run can be handed any implementation
// (a registered third-party store included), not only internal/store's.
//
// The driver maintains one invariant: after every completed round the
// store's evidence set equals the run's accumulated M+ (pre-closure).
// Cold runs clear the store first; warm starts clear and re-put their
// seed; checkpoint resumes clear and re-put the trail's state. Batches
// are sorted strictly-increasing packed pair keys, exactly the
// internal/wire delta contract.
type EvidenceStore interface {
	// ClearEvidence empties the store's evidence set.
	ClearEvidence() error
	// PutEvidence appends one sorted, strictly-increasing batch of
	// packed pair keys. Evidence has set semantics; overlapping batches
	// are fine.
	PutEvidence(keys []uint64) error
}

// resetEvidence clears the store and installs keys as the current
// evidence set. keys must be sorted ascending without duplicates.
func resetEvidence(es EvidenceStore, keys []PairKey) error {
	if es == nil {
		return nil
	}
	if err := es.ClearEvidence(); err != nil {
		return err
	}
	return putEvidence(es, keys)
}

// putEvidence appends a sorted key batch in the store's raw uint64
// form. Empty batches are skipped.
func putEvidence(es EvidenceStore, keys []PairKey) error {
	if es == nil || len(keys) == 0 {
		return nil
	}
	return es.PutEvidence(rekey[uint64](keys))
}
