package store

import (
	"fmt"
	"slices"
	"sync"
)

// Mem is the in-memory store: process maps behind the Store interface,
// and the reference implementation the disk store is differentially
// tested against. State dies with the process; a service on a mem store
// recovers from the journal, not the store.
type Mem struct {
	mu       sync.RWMutex
	evidence map[uint64]struct{}
	blobs    map[string]map[string][]byte
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{
		evidence: map[uint64]struct{}{},
		blobs:    map[string]map[string][]byte{},
	}
}

// Name implements Store.
func (m *Mem) Name() string { return "mem" }

// PutEvidence implements Store.
func (m *Mem) PutEvidence(keys []uint64) error {
	if err := checkBatch(keys); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, k := range keys {
		m.evidence[k] = struct{}{}
	}
	return nil
}

// HasEvidence implements Store.
func (m *Mem) HasEvidence(key uint64) (bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.evidence[key]
	return ok, nil
}

// EvidenceRange implements Store.
func (m *Mem) EvidenceRange(lo, hi uint64, yield func(uint64) bool) error {
	m.mu.RLock()
	keys := make([]uint64, 0, len(m.evidence))
	for k := range m.evidence {
		if k >= lo && k < hi {
			keys = append(keys, k)
		}
	}
	m.mu.RUnlock()
	slices.Sort(keys)
	for _, k := range keys {
		if !yield(k) {
			return nil
		}
	}
	return nil
}

// EvidenceLen implements Store.
func (m *Mem) EvidenceLen() (int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.evidence), nil
}

// SaveBlob implements Store.
func (m *Mem) SaveBlob(kind, name string, data []byte) error {
	if err := checkBlobName(kind); err != nil {
		return err
	}
	if err := checkBlobName(name); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ns := m.blobs[kind]
	if ns == nil {
		ns = map[string][]byte{}
		m.blobs[kind] = ns
	}
	ns[name] = append([]byte(nil), data...)
	return nil
}

// OpenBlob implements Store.
func (m *Mem) OpenBlob(kind, name string) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.blobs[kind][name]
	if !ok {
		return nil, fmt.Errorf("store: blob %s/%s: %w", kind, name, ErrNotFound)
	}
	return append([]byte(nil), data...), nil
}

// ListBlobs implements Store.
func (m *Mem) ListBlobs(kind string) ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	names := make([]string, 0, len(m.blobs[kind]))
	for name := range m.blobs[kind] {
		names = append(names, name)
	}
	slices.Sort(names)
	return names, nil
}

// Flush implements Store (a no-op: there is nothing more durable to
// reach).
func (m *Mem) Flush() error { return nil }

// Close implements Store.
func (m *Mem) Close() error { return nil }

// checkBatch validates a PutEvidence batch: strictly increasing valid
// pair keys, the same contract internal/wire enforces on deltas.
func checkBatch(keys []uint64) error {
	for i, k := range keys {
		if !validPairKey(k) {
			return fmt.Errorf("store: evidence key %d (%#x) is not a valid pair key", i, k)
		}
		if i > 0 && keys[i-1] >= k {
			return fmt.Errorf("store: evidence batch not strictly increasing at %d", i)
		}
	}
	return nil
}

// validPairKey mirrors the wire codec's key contract: high half A, low
// half B, A < B, B < 2^31 (entity ids are int32).
func validPairKey(k uint64) bool {
	a, b := uint32(k>>32), uint32(k)
	return a < b && b < 1<<31
}

// checkBlobName restricts blob kinds and names to a safe charset
// (disk stores map them to file paths).
func checkBlobName(s string) error {
	if s == "" {
		return fmt.Errorf("store: empty blob kind/name")
	}
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("store: blob kind/name %q contains %q (allowed: [A-Za-z0-9._-])", s, c)
		}
	}
	if s == "." || s == ".." {
		return fmt.Errorf("store: blob kind/name %q is reserved", s)
	}
	return nil
}
