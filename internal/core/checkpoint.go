package core

import (
	"fmt"
	"time"

	"repro/internal/wire"
)

// CheckpointConfig enables round-boundary checkpointing of a
// backend-executed run. After every completed round the driver persists
// {round, evidence delta, next active set, outstanding maximal messages,
// visit counts, RunStats} to Dir as one wire.Checkpoint file
// (round-NNNNNN.ckpt), committed through a store.Trail (temp file +
// rename, no fsync: see newRoundDriver), so the death of the process never
// leaves a torn record. Replaying the deltas of rounds 1..r rebuilds the
// evidence set exactly; everything else resumes from the latest record.
type CheckpointConfig struct {
	// Dir is the checkpoint directory; empty disables checkpointing. A
	// fresh (non-resume) run clears previous round files from Dir first.
	Dir string
	// Resume continues a previous run from Dir instead of starting over.
	// An empty Dir resumes into a fresh run; a completed trail
	// reconstructs the final result without evaluating anything.
	Resume bool
	// Matcher labels the matcher producing the trail (e.g. its registry
	// name); it is stamped into every checkpoint and verified on resume,
	// so a trail cannot silently seed a different matcher's run, and the
	// sharded backend's handshake refuses workers labeled otherwise. Empty
	// opts out of both checks (anonymous matchers).
	Matcher string
}

// State is one persisted record of run state — a round of the checkpoint
// trail, or a store's snapshot blob — in the engine's types: the
// wire.Checkpoint header as is (fingerprint, round or commit sequence,
// active set, visits, stats) and, in place of its raw key lists, the
// evidence (a round's delta, or a snapshot's whole M+, ascending) and the
// outstanding maximal messages. Marshal and DecodeState are the only
// conversions between the two forms.
type State struct {
	Header   wire.Checkpoint // Delta and Messages are Marshal's to fill
	Evidence []PairKey
	Messages [][]Pair
}

// Marshal encodes the state as a binary wire.Checkpoint.
func (s *State) Marshal() ([]byte, error) {
	ck := s.Header
	ck.Delta, ck.Messages = rekey[uint64](s.Evidence), messagesToWire(s.Messages)
	return ck.Marshal(wire.Binary)
}

func stateOf(ck *wire.Checkpoint) *State {
	s := &State{Header: *ck, Evidence: rekey[PairKey](ck.Delta), Messages: messagesFromWire(ck.Messages)}
	s.Header.Delta, s.Header.Messages = nil, nil // one copy of a trail's evidence, not two
	return s
}

// DecodeState decodes the persisted record data starts with and validates
// its pairs over the record's own entity count. Bytes after the record are
// ignored: a store's state blob written by an older build appends a
// blocking-index section, which the cover rebuilt from the records replaces.
func DecodeState(data []byte) (*State, error) {
	ck, _, err := wire.UnmarshalCheckpointPrefix(data)
	if err != nil {
		return nil, err
	}
	s := stateOf(ck)
	if err := validPairs(s.Evidence, s.Messages, ck.Entities); err != nil {
		return nil, err
	}
	return s, nil
}

// rekey converts a key list between PairKey and the raw uint64 form the
// wire codec and the stores speak.
func rekey[To, From ~uint64](keys []From) []To {
	out := make([]To, len(keys))
	for i, k := range keys {
		out[i] = To(k)
	}
	return out
}

// regroup converts maximal messages between pairs and raw keys, order-
// and grouping-preserving; no messages is nil either way.
func regroup[To, From any](groups [][]From, conv func(From) To) [][]To {
	if len(groups) == 0 {
		return nil
	}
	out := make([][]To, len(groups))
	for i, g := range groups {
		out[i] = make([]To, len(g))
		for x, v := range g {
			out[i][x] = conv(v)
		}
	}
	return out
}

func messagesToWire(msgs [][]Pair) [][]uint64 {
	return regroup(msgs, func(p Pair) uint64 { return uint64(p.Key()) })
}

func messagesFromWire(groups [][]uint64) [][]Pair {
	return regroup(groups, func(k uint64) Pair { return PairKey(k).Pair() })
}

// validPairs is the one check of evidence and message pairs that come
// from outside the running engine — a trail, a snapshot blob, a warm
// seed: each must be a normalized pair over the entity ids [0, n).
func validPairs(evidence []PairKey, messages [][]Pair, n int) error {
	for _, k := range evidence {
		if p := k.Pair(); !p.ValidOver(n) {
			return fmt.Errorf("core: evidence pair %v invalid over %d entities", p, n)
		}
	}
	for _, msg := range messages {
		for _, p := range msg {
			if !p.ValidOver(n) {
				return fmt.Errorf("core: message pair %v invalid over %d entities", p, n)
			}
		}
	}
	return nil
}

// checkpoint persists the just-completed round. delta must be the
// round's evidence delta in ascending key order.
func (d *RoundDriver) checkpoint(delta []PairKey) error {
	st := &State{Evidence: delta, Header: wire.Checkpoint{
		Scheme:        d.plan.Scheme,
		Matcher:       d.ck.Matcher,
		Neighborhoods: d.plan.Config.Cover.Len(),
		Entities:      d.plan.Config.Cover.NumEntities,
		Round:         d.round,
		Done:          d.done,
		Active:        d.active,
		Visits:        d.visits,
		Stats:         statsToWire(&d.res.Stats),
	}}
	if d.store != nil {
		st.Messages = d.store.Messages()
	}
	b, err := st.Marshal()
	if err != nil {
		return fmt.Errorf("core: encoding checkpoint round %d: %w", d.round, err)
	}
	return d.trail.Commit(d.round, b)
}

// loadTrail reads and verifies the trail and folds it into one State: the
// latest record's header, every round's delta in round order as its
// evidence. The rounds must be contiguous 1..r and all fingerprint this
// run: its plan and, when both sides carry one, its matcher label. A
// record that does not decode is the trail's business (a torn tail is
// quarantined, anything else an error); one that decodes but belongs to
// another run is always an error. Returns nil when the directory holds no
// checkpoints (resume into a fresh run).
func (d *RoundDriver) loadTrail() (*State, error) {
	var (
		recs  []*State
		names []string
	)
	err := d.trail.Scan(func(seq int, data []byte) error {
		ck, err := wire.UnmarshalCheckpoint(data)
		if err != nil {
			return err
		}
		recs = append(recs, stateOf(ck))
		names = append(names, d.trail.Path(seq))
		return nil
	})
	if err != nil || len(recs) == 0 {
		return nil, err
	}
	cover := d.plan.Config.Cover
	var evidence []PairKey
	for i, rec := range recs {
		h := &rec.Header
		if h.Round != i+1 {
			return nil, fmt.Errorf("core: checkpoint trail not contiguous: %s carries round %d, want %d",
				names[i], h.Round, i+1)
		}
		if h.Scheme != d.plan.Scheme || h.Neighborhoods != cover.Len() || h.Entities != cover.NumEntities ||
			(h.Matcher != "" && d.ck.Matcher != "" && h.Matcher != d.ck.Matcher) {
			return nil, fmt.Errorf("core: checkpoint %s belongs to a different run (matcher %q, scheme %s over %d neighborhoods/%d entities; resuming matcher %q, %s over %d/%d)",
				names[i], h.Matcher, h.Scheme, h.Neighborhoods, h.Entities,
				d.ck.Matcher, d.plan.Scheme, cover.Len(), cover.NumEntities)
		}
		evidence = append(evidence, rec.Evidence...)
	}
	last := recs[len(recs)-1]
	last.Evidence = evidence
	return last, nil
}

func statsToWire(s *RunStats) wire.Stats {
	return wire.Stats{
		Neighborhoods:   s.Neighborhoods,
		MatcherCalls:    s.MatcherCalls,
		Evaluations:     s.Evaluations,
		MaxRevisits:     s.MaxRevisits,
		MessagesSent:    s.MessagesSent,
		MaximalMessages: s.MaximalMessages,
		PromotedSets:    s.PromotedSets,
		ScoreChecks:     s.ScoreChecks,
		Skips:           s.Skips,
		ElapsedNS:       int64(s.Elapsed),
		MatcherTimeNS:   int64(s.MatcherTime),
		ActiveSizes:     s.ActiveSizes,
	}
}

func statsFromWire(s *wire.Stats) RunStats {
	return RunStats{
		Neighborhoods:   s.Neighborhoods,
		MatcherCalls:    s.MatcherCalls,
		Evaluations:     s.Evaluations,
		MaxRevisits:     s.MaxRevisits,
		MessagesSent:    s.MessagesSent,
		MaximalMessages: s.MaximalMessages,
		PromotedSets:    s.PromotedSets,
		ScoreChecks:     s.ScoreChecks,
		Skips:           s.Skips,
		Elapsed:         time.Duration(s.ElapsedNS),
		MatcherTime:     time.Duration(s.MatcherTimeNS),
		ActiveSizes:     s.ActiveSizes,
	}
}
