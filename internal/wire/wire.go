// Package wire defines the serialized message formats exchanged by the
// sharded execution backend and persisted by the checkpoint/resume
// machinery: evidence deltas, per-shard round results, and round
// checkpoints. Pair sets travel as packed PairKey uint64 batches in
// strictly increasing key order (key order = (A, then B) pair order), so
// a delta batch is canonical: two equal sets always serialize to the
// same bytes.
//
// There is one codec, binary: the magic "CEMW", a format version byte, a
// message type byte, then varint fields with sorted key lists
// difference-encoded. Decoding checks the magic, version and type and
// validates structural invariants (sorted keys, valid normalized pairs,
// non-negative counters), so corrupt or foreign input is reported as an
// error rather than smuggled into the engine.
//
// The package deliberately depends on nothing inside the engine: keys
// are plain uint64s and ids plain int32s, so the wire format is stable
// against internal refactors and usable by external tooling.
package wire

import (
	"fmt"
	"unicode/utf8"
)

// Format names a codec. Binary is the only one; every Marshal still
// takes a Format because bench/schemes.go, which must stay byte-for-byte
// unchanged between benchmark revisions, calls Delta.Marshal(Binary) and
// ShardBatch.Marshal(Binary). Removing the parameter waits for the next
// change that revises the benchmark.
type Format int

// Binary is the varint codec (magic "CEMW").
const Binary Format = 0

// Version is the wire-format version stamped into every message. Readers
// reject versions they do not know.
const Version = 1

// Message type tags: one byte after the version.
const (
	typeDelta      = 1
	typeShardBatch = 2
	typeCheckpoint = 3
)

// Delta is a batch of evidence as packed PairKeys in strictly
// increasing order: one round's newly decided pairs, or one block of a
// disk store's evidence segment (Round is then the block ordinal).
type Delta struct {
	Round int
	Keys  []uint64 // strictly increasing valid PairKeys
}

// Job is the serialized outcome of one neighborhood evaluation, the
// per-neighborhood payload of a ShardBatch. Matches are sorted PairKeys,
// and only those the worker's replica lacked when the job ran: the rest
// are in the coordinator's M+ already, so reducing the list reaches the
// same M+ as reducing the whole match set. Msgs are the neighborhood's
// maximal messages (MMP only), order- and grouping-preserving (promotion
// scans them in generation order).
type Job struct {
	ID      int32
	Skipped bool
	Active  int
	Calls   int
	Dur     int64
	Matches []uint64
	Msgs    [][]uint64
}

// ShardBatch is one partition's serialized output for one round: the
// evaluations of every active neighborhood the partition owns, in
// ascending id order. Epoch echoes the assignment epoch; the sharded
// coordinator discards batches whose epoch is stale (the partition was
// reassigned after a deadline breach — a slow "zombie" worker's late
// batch must not be double-applied).
type ShardBatch struct {
	Round int
	Shard int
	Epoch int
	Jobs  []Job
}

// Stats mirrors the engine's RunStats in wire-stable form (durations as
// nanoseconds).
type Stats struct {
	Neighborhoods   int
	MatcherCalls    int
	Evaluations     int
	MaxRevisits     int
	MessagesSent    int
	MaximalMessages int
	PromotedSets    int
	ScoreChecks     int
	Skips           int
	ElapsedNS       int64
	MatcherTimeNS   int64
	ActiveSizes     []int
}

// Checkpoint is the durable record written after every completed round:
// the round's evidence delta plus everything needed to restart the run
// at the next round boundary (the next active set, the outstanding
// maximal messages, per-neighborhood visit counts, and the running
// statistics). Replaying Delta of rounds 1..r rebuilds the evidence set
// exactly; the remaining fields come from the latest record alone.
//
// Scheme, Matcher, Neighborhoods and Entities fingerprint the run:
// resuming against a different scheme, matcher or cover is rejected
// (Matcher is a caller-chosen label, e.g. the registry name; empty
// opts out of the matcher check for anonymous matchers).
type Checkpoint struct {
	Scheme        string
	Matcher       string
	Neighborhoods int
	Entities      int
	Round         int
	Done          bool
	Delta         []uint64 // strictly increasing
	Active        []int32  // next round's active set, ascending
	Messages      [][]uint64
	Visits        []int
	Stats         Stats
}

// validKey reports whether k packs a normalized non-reflexive pair of
// non-negative int32 ids (A < B).
func validKey(k uint64) bool {
	a, b := uint32(k>>32), uint32(k)
	return a < b && b < 1<<31
}

// checkSortedKeys validates a strictly-increasing valid key batch.
func checkSortedKeys(field string, keys []uint64) error {
	for i, k := range keys {
		if !validKey(k) {
			return fmt.Errorf("wire: %s[%d]: invalid pair key %#x", field, i, k)
		}
		if i > 0 && keys[i-1] >= k {
			return fmt.Errorf("wire: %s not strictly increasing at %d", field, i)
		}
	}
	return nil
}

// checkKeys validates a key batch that need not be sorted (message
// groups preserve generation order).
func checkKeys(field string, keys []uint64) error {
	for i, k := range keys {
		if !validKey(k) {
			return fmt.Errorf("wire: %s[%d]: invalid pair key %#x", field, i, k)
		}
	}
	return nil
}

func nonNegative(field string, vs ...int64) error {
	for _, v := range vs {
		if v < 0 {
			return fmt.Errorf("wire: %s is negative (%d)", field, v)
		}
	}
	return nil
}

// validate checks the structural invariants every encode and decode
// enforces.
func (d *Delta) validate() error {
	if err := nonNegative("delta.round", int64(d.Round)); err != nil {
		return err
	}
	return checkSortedKeys("delta.keys", d.Keys)
}

func (b *ShardBatch) validate() error {
	if err := nonNegative("batch.round/shard", int64(b.Round), int64(b.Shard), int64(b.Epoch)); err != nil {
		return err
	}
	for i := range b.Jobs {
		j := &b.Jobs[i]
		if err := nonNegative("batch.job counters", int64(j.ID), int64(j.Active), int64(j.Calls), j.Dur); err != nil {
			return err
		}
		if err := checkSortedKeys("batch.job.matches", j.Matches); err != nil {
			return err
		}
		for _, msg := range j.Msgs {
			if err := checkKeys("batch.job.msgs", msg); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *Checkpoint) validate() error {
	if !utf8.ValidString(c.Scheme) {
		return fmt.Errorf("wire: checkpoint.scheme is not valid UTF-8")
	}
	if !utf8.ValidString(c.Matcher) {
		return fmt.Errorf("wire: checkpoint.matcher is not valid UTF-8")
	}
	if err := nonNegative("checkpoint counters",
		int64(c.Round), int64(c.Neighborhoods), int64(c.Entities)); err != nil {
		return err
	}
	if err := checkSortedKeys("checkpoint.delta", c.Delta); err != nil {
		return err
	}
	for i, id := range c.Active {
		if id < 0 || int(id) >= c.Neighborhoods {
			return fmt.Errorf("wire: checkpoint.active[%d] = %d out of range [0,%d)", i, id, c.Neighborhoods)
		}
		if i > 0 && c.Active[i-1] >= id {
			return fmt.Errorf("wire: checkpoint.active not strictly increasing at %d", i)
		}
	}
	for _, msg := range c.Messages {
		if err := checkKeys("checkpoint.messages", msg); err != nil {
			return err
		}
	}
	if len(c.Visits) != c.Neighborhoods {
		return fmt.Errorf("wire: checkpoint has %d visit counts for %d neighborhoods", len(c.Visits), c.Neighborhoods)
	}
	for i, v := range c.Visits {
		if v < 0 {
			return fmt.Errorf("wire: checkpoint.visits[%d] is negative", i)
		}
	}
	s := &c.Stats
	if err := nonNegative("checkpoint.stats",
		int64(s.Neighborhoods), int64(s.MatcherCalls), int64(s.Evaluations),
		int64(s.MaxRevisits), int64(s.MessagesSent), int64(s.MaximalMessages),
		int64(s.PromotedSets), int64(s.ScoreChecks), int64(s.Skips),
		s.ElapsedNS, s.MatcherTimeNS); err != nil {
		return err
	}
	for i, a := range s.ActiveSizes {
		if a < 0 {
			return fmt.Errorf("wire: checkpoint.stats.active_sizes[%d] is negative", i)
		}
	}
	return nil
}

// Marshal serializes the delta.
func (d *Delta) Marshal(Format) ([]byte, error) {
	if err := d.validate(); err != nil {
		return nil, err
	}
	e := newEncoder(typeDelta)
	e.uvarint(uint64(d.Round))
	e.sortedKeys(d.Keys)
	return e.bytes(), nil
}

// Marshal serializes the batch.
func (b *ShardBatch) Marshal(Format) ([]byte, error) {
	if err := b.validate(); err != nil {
		return nil, err
	}
	e := newEncoder(typeShardBatch)
	e.uvarint(uint64(b.Round))
	e.uvarint(uint64(b.Shard))
	e.uvarint(uint64(b.Epoch))
	e.uvarint(uint64(len(b.Jobs)))
	for i := range b.Jobs {
		j := &b.Jobs[i]
		e.uvarint(uint64(j.ID))
		if j.Skipped {
			e.uvarint(1)
		} else {
			e.uvarint(0)
		}
		e.uvarint(uint64(j.Active))
		e.uvarint(uint64(j.Calls))
		e.uvarint(uint64(j.Dur))
		e.sortedKeys(j.Matches)
		e.keyGroups(j.Msgs)
	}
	return e.bytes(), nil
}

// Marshal serializes the checkpoint.
func (c *Checkpoint) Marshal(Format) ([]byte, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	return c.encode(), nil
}

// encode writes c without validating it.
func (c *Checkpoint) encode() []byte {
	e := newEncoder(typeCheckpoint)
	e.str(c.Scheme)
	e.str(c.Matcher)
	e.uvarint(uint64(c.Neighborhoods))
	e.uvarint(uint64(c.Entities))
	e.uvarint(uint64(c.Round))
	if c.Done {
		e.uvarint(1)
	} else {
		e.uvarint(0)
	}
	e.sortedKeys(c.Delta)
	e.uvarint(uint64(len(c.Active)))
	prev := int32(-1)
	for _, id := range c.Active {
		e.uvarint(uint64(id - prev)) // ascending: difference-encode
		prev = id
	}
	e.keyGroups(c.Messages)
	e.uvarint(uint64(len(c.Visits)))
	for _, v := range c.Visits {
		e.uvarint(uint64(v))
	}
	s := &c.Stats
	e.uvarint(uint64(s.Neighborhoods))
	e.uvarint(uint64(s.MatcherCalls))
	e.uvarint(uint64(s.Evaluations))
	e.uvarint(uint64(s.MaxRevisits))
	e.uvarint(uint64(s.MessagesSent))
	e.uvarint(uint64(s.MaximalMessages))
	e.uvarint(uint64(s.PromotedSets))
	e.uvarint(uint64(s.ScoreChecks))
	e.uvarint(uint64(s.Skips))
	e.uvarint(uint64(s.ElapsedNS))
	e.uvarint(uint64(s.MatcherTimeNS))
	e.uvarint(uint64(len(s.ActiveSizes)))
	for _, a := range s.ActiveSizes {
		e.uvarint(uint64(a))
	}
	return e.bytes()
}

// UnmarshalDelta decodes and validates a Delta.
func UnmarshalDelta(b []byte) (*Delta, error) {
	dec, err := newDecoder(b, typeDelta)
	if err != nil {
		return nil, err
	}
	d := &Delta{Round: int(dec.uvarint("round")), Keys: dec.sortedKeys("keys")}
	if err := dec.finish(); err != nil {
		return nil, err
	}
	if err := d.validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// UnmarshalShardBatch decodes and validates a ShardBatch.
func UnmarshalShardBatch(b []byte) (*ShardBatch, error) {
	dec, err := newDecoder(b, typeShardBatch)
	if err != nil {
		return nil, err
	}
	sb := &ShardBatch{
		Round: int(dec.uvarint("round")),
		Shard: int(dec.uvarint("shard")),
		Epoch: int(dec.uvarint("epoch")),
	}
	sb.Jobs = make([]Job, dec.count("jobs"))
	for i := range sb.Jobs {
		j := &sb.Jobs[i]
		j.ID = int32(dec.uvarint("job.id"))
		j.Skipped = dec.uvarint("job.skipped") != 0
		j.Active = int(dec.uvarint("job.active"))
		j.Calls = int(dec.uvarint("job.calls"))
		j.Dur = int64(dec.uvarint("job.dur"))
		j.Matches = dec.sortedKeys("job.matches")
		j.Msgs = dec.keyGroups("job.msgs")
	}
	if err := dec.finish(); err != nil {
		return nil, err
	}
	if err := sb.validate(); err != nil {
		return nil, err
	}
	return sb, nil
}

// UnmarshalCheckpoint decodes and validates a Checkpoint.
func UnmarshalCheckpoint(b []byte) (*Checkpoint, error) {
	c, rest, err := UnmarshalCheckpointPrefix(b)
	if err != nil {
		return nil, err
	}
	if len(rest) > 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after message", len(rest))
	}
	return c, nil
}

// UnmarshalCheckpointPrefix decodes and validates the Checkpoint b starts
// with and returns the bytes after it, for a record that carries more than
// the checkpoint (a store's state blob appends the blocking index).
func UnmarshalCheckpointPrefix(b []byte) (*Checkpoint, []byte, error) {
	dec, err := newDecoder(b, typeCheckpoint)
	if err != nil {
		return nil, nil, err
	}
	c := &Checkpoint{
		Scheme:        dec.str("scheme"),
		Matcher:       dec.str("matcher"),
		Neighborhoods: int(dec.uvarint("neighborhoods")),
		Entities:      int(dec.uvarint("entities")),
		Round:         int(dec.uvarint("round")),
		Done:          dec.uvarint("done") != 0,
		Delta:         dec.sortedKeys("delta"),
	}
	if n := dec.count("active"); n > 0 {
		c.Active = make([]int32, n)
		prev := int64(-1)
		for i := range c.Active {
			prev += int64(dec.uvarint("active"))
			if prev > int64(1)<<31-1 {
				dec.fail("active", "id overflows int32")
				prev = 0
			}
			c.Active[i] = int32(prev)
		}
	}
	c.Messages = dec.keyGroups("messages")
	c.Visits = make([]int, dec.count("visits"))
	for i := range c.Visits {
		c.Visits[i] = int(dec.uvarint("visits"))
	}
	s := &c.Stats
	s.Neighborhoods = int(dec.uvarint("stats"))
	s.MatcherCalls = int(dec.uvarint("stats"))
	s.Evaluations = int(dec.uvarint("stats"))
	s.MaxRevisits = int(dec.uvarint("stats"))
	s.MessagesSent = int(dec.uvarint("stats"))
	s.MaximalMessages = int(dec.uvarint("stats"))
	s.PromotedSets = int(dec.uvarint("stats"))
	s.ScoreChecks = int(dec.uvarint("stats"))
	s.Skips = int(dec.uvarint("stats"))
	s.ElapsedNS = int64(dec.uvarint("stats"))
	s.MatcherTimeNS = int64(dec.uvarint("stats"))
	if na := dec.count("stats.active_sizes"); na > 0 {
		s.ActiveSizes = make([]int, na)
		for i := range s.ActiveSizes {
			s.ActiveSizes[i] = int(dec.uvarint("stats.active_sizes"))
		}
	}
	if dec.err != nil {
		return nil, nil, dec.err
	}
	if err := c.validate(); err != nil {
		return nil, nil, err
	}
	return c, b[dec.off:], nil
}
