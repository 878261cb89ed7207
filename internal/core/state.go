package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/wire"
)

// State is the one persisted record of run state — what a run saves
// after each round (Config.Save) and what a store's state blob holds — in
// the engine's types: the wire.Checkpoint header as is (fingerprint,
// round or commit sequence, Done, active set, visits, stats) and, in
// place of its raw key lists, the evidence (the whole M+, ascending) and
// the outstanding maximal messages. Marshal and DecodeState are the only
// conversions between the two forms. A State not Done is a round
// boundary, and RunBackendFrom continues a run from it: the fixpoint
// does not depend on evaluation order, so any boundary is a valid state
// to continue from.
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
// about to continue or reopen it: the same scheme over a cover with the
// same set and entity counts, written by the same matcher. A run without a matcher label (an
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
// from outside the running engine — a saved state or a warm seed: each
// must be a normalized pair over the entity ids [0, n).
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

// WarmState is the seed of an incremental continuation: a completed
// run's evidence (its M+, order irrelevant) and outstanding maximal
// messages (MMP only), with active the neighborhoods whose input changed
// since — typically the ones an ingested delta affected. Its round is 1,
// the prior run's: the continuation's first round re-activates, so
// undecided-free neighborhoods may be discharged as skips.
//
// For a well-behaved matcher whose output over a grown entity set can
// only grow (delta-monotonicity — both built-in matchers satisfy it),
// the warm fixpoint equals the cold fixpoint of a from-scratch run on
// the union, as long as active covers every neighborhood whose entity
// set, candidate scope or adjacent evidence changed: unchanged
// neighborhoods are already at fixpoint under the seeded evidence, and
// any new match derived during the continuation re-activates its
// affected neighborhoods exactly like any other round delta.
func WarmState(evidence []PairKey, messages [][]Pair, active []int32) *State {
	return &State{Header: wire.Checkpoint{Round: 1, Active: active}, Evidence: evidence, Messages: messages}
}

// seed is the one installer of a State into a freshly initialized
// driver, a warm seed and a saved round boundary alike: the evidence
// becomes the accumulated match set, outstanding messages refill the
// store, the active set (ascending; duplicates removed) replaces the
// all-neighborhoods round 1, and the round counter, visits and stats
// continue from the header's.
func (d *RoundDriver) seed(st *State) error {
	cover, h := d.plan.Config.Cover, &st.Header
	if err := validPairs(st.Evidence, st.Messages, cover.NumEntities); err != nil {
		return err
	}
	if len(st.Messages) > 0 && !d.plan.WithMessages {
		return fmt.Errorf("core: seed carries maximal messages but scheme %s exchanges none", d.plan.Scheme)
	}
	for _, id := range h.Active {
		if id < 0 || int(id) >= cover.Len() {
			return fmt.Errorf("core: seed active id %d out of range [0,%d)", id, cover.Len())
		}
	}
	if h.Visits != nil {
		if len(h.Visits) != cover.Len() {
			return fmt.Errorf("core: seed has %d visit counts for %d neighborhoods", len(h.Visits), cover.Len())
		}
		d.visits = h.Visits
	}
	for _, k := range st.Evidence {
		d.ev.AddKey(k)
	}
	d.roundMark = d.ev.Mark()
	for _, msg := range st.Messages {
		d.store.Add(msg)
	}
	active := slices.Clone(h.Active)
	slices.Sort(active)
	d.active = slices.Compact(active)
	d.done = h.Done || len(d.active) == 0
	d.round, d.res.Stats = h.Round, statsFromWire(&h.Stats)
	d.res.Stats.Neighborhoods = cover.Len()
	d.prior = d.res.Stats.Elapsed
	return nil
}

// save hands the run's state at the last round boundary to Config.Save,
// when set: the whole M+, the next active set, the outstanding messages,
// visits and stats, with the elapsed time so far.
func (d *RoundDriver) save() error {
	cfg := &d.plan.Config
	if cfg.Save == nil {
		return nil
	}
	d.res.Stats.Elapsed = d.prior + time.Since(d.start)
	h := Header(d.plan.Scheme, cfg.MatcherLabel, cfg.Cover, d.round)
	h.Done, h.Active, h.Visits, h.Stats = d.done, d.active, d.visits, statsToWire(&d.res.Stats)
	st := &State{Header: h, Evidence: d.ev.SortedKeys()}
	if d.store != nil {
		st.Messages = d.store.Messages()
	}
	b, err := st.Marshal()
	if err != nil {
		return fmt.Errorf("core: encoding the state after round %d: %w", d.round, err)
	}
	return cfg.Save(b)
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
