package core

import (
	"fmt"
	"time"

	"repro/internal/wire"
)

// CheckpointConfig enables round-boundary checkpointing of a
// backend-executed run: every completed round replaces the run's one
// checkpoint in Dir, a State holding the whole M+, the next active set,
// the outstanding maximal messages, visit counts and RunStats. It is
// entry 0 of a store.Trail (checkpoint-000000.ckpt), so a commit is the
// durable one of Disk.SaveBlob and a crash never leaves it torn.
type CheckpointConfig struct {
	// Dir is the checkpoint directory; empty disables checkpointing. A
	// fresh (non-resume) run removes the previous checkpoint first. No
	// other file in Dir, such as an older build's round-NNNNNN.ckpt, is
	// read, written or removed.
	Dir string
	// Resume continues a previous run from Dir's checkpoint instead of
	// starting over. Without one the run starts fresh, as it does after
	// setting aside (*.corrupt) one that does not decode. A completed
	// run's checkpoint rebuilds the result without evaluating anything.
	Resume bool
	// Matcher labels the matcher producing the checkpoint (e.g. its
	// registry name); a resume checks it (CheckHeader), and the sharded
	// backend's handshake refuses workers labeled otherwise. Empty opts
	// out of both checks (anonymous matchers).
	Matcher string
}

const checkpointFormat = "checkpoint-%06d.ckpt"

// State is one persisted record of run state — a run's round checkpoint
// or a store's state blob — in the engine's types: the wire.Checkpoint
// header as is (fingerprint, round or commit sequence, active set,
// visits, stats) and, in place of its raw key lists, the evidence (the
// whole M+, ascending) and the outstanding maximal messages. Marshal and
// DecodeState are the only conversions between the two forms.
type State struct {
	Header   wire.Checkpoint // Delta and Messages are Marshal's to fill
	Evidence []PairKey
	Messages [][]Pair
}

// Header is the one builder of a persisted state's header: the run's
// fingerprint — scheme, matcher label, the cover's set and entity counts —
// and its round (a store's commit sequence), with every visit count zero.
func Header(scheme, matcher string, cover *Cover, round int) wire.Checkpoint {
	return wire.Checkpoint{
		Scheme:        scheme,
		Matcher:       matcher,
		Neighborhoods: cover.Len(),
		Entities:      cover.NumEntities,
		Round:         round,
		Visits:        make([]int, cover.Len()),
	}
}

// CheckHeader is the one check that a persisted state belongs to the run
// about to continue from it — a checkpoint to a resume, a state blob to
// a reopen: the same scheme over a cover with the same set and entity
// counts, written by the same matcher. A run without a matcher label (an
// anonymous matcher) checks no label.
func CheckHeader(h *wire.Checkpoint, scheme, matcher string, cover *Cover) error {
	if h.Scheme == scheme && (matcher == "" || h.Matcher == matcher) &&
		h.Neighborhoods == cover.Len() && h.Entities == cover.NumEntities {
		return nil
	}
	return fmt.Errorf("core: saved state of a different run (matcher %q, scheme %s over %d neighborhoods/%d entities; this run: matcher %q, %s over %d/%d)",
		h.Matcher, h.Scheme, h.Neighborhoods, h.Entities, matcher, scheme, cover.Len(), cover.NumEntities)
}

// Marshal encodes the state as a binary wire.Checkpoint.
func (s *State) Marshal() ([]byte, error) {
	ck := s.Header
	ck.Delta, ck.Messages = rekey[uint64](s.Evidence), messagesToWire(s.Messages)
	return ck.Marshal(wire.Binary)
}

func stateOf(ck *wire.Checkpoint) *State {
	s := &State{Header: *ck, Evidence: rekey[PairKey](ck.Delta), Messages: messagesFromWire(ck.Messages)}
	s.Header.Delta, s.Header.Messages = nil, nil // one copy of the evidence, not two
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
// from outside the running engine — a checkpoint, a state blob, a warm
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

// checkpoint replaces the run's checkpoint with its state at the end of
// the last completed round (or its warm seed).
func (d *RoundDriver) checkpoint() error {
	h := Header(d.plan.Scheme, d.ck.Matcher, d.plan.Config.Cover, d.round)
	h.Done, h.Active, h.Visits, h.Stats = d.done, d.active, d.visits, statsToWire(&d.res.Stats)
	st := &State{Header: h, Evidence: d.ev.SortedKeys()}
	if d.store != nil {
		st.Messages = d.store.Messages()
	}
	b, err := st.Marshal()
	if err != nil {
		return fmt.Errorf("core: encoding checkpoint round %d: %w", d.round, err)
	}
	return d.trail.Commit(0, b)
}

// load reads the run's checkpoint: nil when Dir holds none, or only one
// that does not decode (the trail sets it aside as *.corrupt); an error
// when it decodes but belongs to another run.
func (d *RoundDriver) load() (*State, error) {
	var st *State
	err := d.trail.Scan(func(_ int, data []byte) error {
		ck, err := wire.UnmarshalCheckpoint(data)
		if err == nil {
			st = stateOf(ck)
		}
		return err
	})
	if err != nil || st == nil {
		return nil, err
	}
	if err := CheckHeader(&st.Header, d.plan.Scheme, d.ck.Matcher, d.plan.Config.Cover); err != nil {
		return nil, fmt.Errorf("%s: %w", d.trail.Path(0), err)
	}
	return st, nil
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
