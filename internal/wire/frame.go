package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"unicode/utf8"
)

// This file is the stream layer of the sharded backend (internal/net):
// length-prefixed, versioned frames carrying wire messages over a byte
// stream (TCP, unix socket, or an in-process pipe), plus the control
// messages the coordinator and its workers exchange around the data
// message, ShardBatch.
//
// A frame is
//
//	magic "CEMF" | version (1 byte) | frame type (1 byte) |
//	payload length (uint32, big endian) | payload
//
// The payload of a data frame is itself a wire message (the framing
// layer does not look inside). Truncation anywhere — a torn
// connection, a partial write, a crashed peer — is reported as the typed
// ErrTruncated, never a panic and never a silent short read, so callers
// can distinguish "the stream ended mid-frame" (retry/reassign) from a
// clean end of stream (io.EOF exactly at a frame boundary).

// frameMagic opens every frame. Distinct from the message magic "CEMW"
// so a frame can never be mistaken for a bare message (or vice versa).
var frameMagic = [4]byte{'C', 'E', 'M', 'F'}

// FrameVersion is the framing-layer version, independent of the message
// Version (a framing change does not invalidate persisted checkpoints).
// It changes whenever a frame type is added, retired or reshaped (3: the
// Hello carries V−), so a fleet mixing builds is refused at its first frame
// rather than failing mid-run.
const FrameVersion = 3

// frameHeaderLen is magic + version + type + uint32 length.
const frameHeaderLen = 4 + 1 + 1 + 4

// MaxFramePayload bounds a frame payload (64 MiB). A corrupt or hostile
// length prefix is rejected before any allocation.
const MaxFramePayload = 1 << 26

// Frame types of the sharded protocol.
const (
	// FrameHello announces a run: the coordinator sends its run
	// fingerprint after connecting, the worker answers with FrameHelloAck
	// carrying its own. Mismatched fingerprints end the session.
	FrameHello byte = 1
	// FrameHelloAck is the worker's handshake reply.
	FrameHelloAck byte = 2
	// FrameAssign hands a worker one partition of one round: the active
	// ids to evaluate plus the evidence catch-up bringing the worker's
	// replica to the round-start snapshot.
	FrameAssign byte = 3
	// FrameBatch returns a partition's evaluation results (a ShardBatch
	// message, epoch-tagged).
	FrameBatch byte = 4
	// FrameHeartbeat is the worker's liveness signal while it evaluates
	// an assignment.
	FrameHeartbeat byte = 5
)

// ErrTruncated reports a byte stream that ended inside a frame: header
// or payload cut short. It is the typed signal of a torn connection or a
// partial write; a clean end of stream at a frame boundary is io.EOF.
var ErrTruncated = errors.New("wire: truncated frame")

// validFrameType reports whether t is a known frame type.
func validFrameType(t byte) bool {
	return t >= FrameHello && t <= FrameHeartbeat
}

// AppendFrame appends one encoded frame to dst and returns the extended
// slice. The payload is copied, not aliased.
func AppendFrame(dst []byte, frameType byte, payload []byte) ([]byte, error) {
	if !validFrameType(frameType) {
		return dst, fmt.Errorf("wire: unknown frame type %d", frameType)
	}
	if len(payload) > MaxFramePayload {
		return dst, fmt.Errorf("wire: frame payload %d exceeds limit %d", len(payload), MaxFramePayload)
	}
	dst = append(dst, frameMagic[:]...)
	dst = append(dst, FrameVersion, frameType)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...), nil
}

// WriteFrame writes one frame to w as a single Write call, so
// frame-granular middlewares (fault injectors, buffered conns) see whole
// frames.
func WriteFrame(w io.Writer, frameType byte, payload []byte) error {
	buf, err := AppendFrame(make([]byte, 0, frameHeaderLen+len(payload)), frameType, payload)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadFrame reads exactly one frame from r. A stream that ends cleanly
// at a frame boundary returns io.EOF; a stream that ends inside a frame
// returns ErrTruncated; corrupt headers (bad magic, unknown version or
// type, oversized length) are reported as ordinary errors. The payload
// is freshly allocated and safe to retain.
func ReadFrame(r io.Reader) (frameType byte, payload []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return 0, nil, ErrTruncated
		}
		return 0, nil, err
	}
	if string(hdr[:4]) != string(frameMagic[:]) {
		return 0, nil, fmt.Errorf("wire: bad frame magic %q", hdr[:4])
	}
	if hdr[4] != FrameVersion {
		return 0, nil, fmt.Errorf("wire: unsupported frame version %d (want %d)", hdr[4], FrameVersion)
	}
	frameType = hdr[5]
	if !validFrameType(frameType) {
		return 0, nil, fmt.Errorf("wire: unknown frame type %d", frameType)
	}
	n := binary.BigEndian.Uint32(hdr[6:])
	if n > MaxFramePayload {
		return 0, nil, fmt.Errorf("wire: frame payload %d exceeds limit %d", n, MaxFramePayload)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, nil, ErrTruncated
		}
		return 0, nil, err
	}
	return frameType, payload, nil
}

// Control-message type tags (continuing the data-message tags in
// wire.go).
const (
	typeHello     = 4
	typeAssign    = 5
	typeHeartbeat = 6
)

// Hello is the handshake message: the coordinator announces the run it
// is about to distribute, and each worker echoes its own view back. Both
// sides verify the other's fingerprint — scheme, matcher label (empty
// opts out, as in checkpoints), cover sizes — so a worker grounded on a
// different corpus or model is rejected before any work is assigned.
type Hello struct {
	Worker        int // worker id (coordinator side: the slot being greeted)
	Scheme        string
	Matcher       string
	Neighborhoods int
	Entities      int
	// HeartbeatNS asks the worker to heartbeat at this interval while
	// evaluating (coordinator→worker; workers echo it back untouched).
	HeartbeatNS int64
	// Negative is the run's V− evidence, strictly increasing pair keys
	// (coordinator→worker; workers echo none): a worker evaluates under
	// the coordinator's V−, not its own configuration's.
	Negative []uint64
}

// Assign hands one partition of one round to a worker. Keys is the
// evidence catch-up — the sorted pair keys the worker must merge into
// its replica to reach the round-start snapshot, given that its replica
// currently holds the start-of-FromRound state (FromRound 0 means an
// empty replica: the keys are the full snapshot). IDs are the partition's
// active neighborhoods, ascending. Epoch tags the assignment: the
// coordinator bumps it whenever the partition is re-sent or reassigned,
// and a returned batch carrying a stale epoch is discarded, never
// double-applied.
type Assign struct {
	Round     int
	Epoch     int
	Part      int
	FromRound int
	AllowSkip bool
	Keys      []uint64 // strictly increasing catch-up evidence
	IDs       []int32  // active ids of the partition, ascending
}

// Heartbeat is the worker's periodic liveness signal while an
// assignment is being evaluated.
type Heartbeat struct {
	Worker int
	Round  int
	Part   int
}

func (h *Hello) validate() error {
	if !utf8.ValidString(h.Scheme) {
		return fmt.Errorf("wire: hello.scheme is not valid UTF-8")
	}
	if !utf8.ValidString(h.Matcher) {
		return fmt.Errorf("wire: hello.matcher is not valid UTF-8")
	}
	if err := checkSortedKeys("hello.negative", h.Negative); err != nil {
		return err
	}
	return nonNegative("hello counters",
		int64(h.Worker), int64(h.Neighborhoods), int64(h.Entities), h.HeartbeatNS)
}

func (a *Assign) validate() error {
	if err := nonNegative("assign counters",
		int64(a.Round), int64(a.Epoch), int64(a.Part), int64(a.FromRound)); err != nil {
		return err
	}
	if a.FromRound > a.Round {
		return fmt.Errorf("wire: assign.from_round %d past round %d", a.FromRound, a.Round)
	}
	if err := checkSortedKeys("assign.keys", a.Keys); err != nil {
		return err
	}
	for i, id := range a.IDs {
		if id < 0 {
			return fmt.Errorf("wire: assign.ids[%d] is negative", i)
		}
		if i > 0 && a.IDs[i-1] >= id {
			return fmt.Errorf("wire: assign.ids not strictly increasing at %d", i)
		}
	}
	return nil
}

func (h *Heartbeat) validate() error {
	return nonNegative("heartbeat counters", int64(h.Worker), int64(h.Round), int64(h.Part))
}

// Marshal serializes the hello.
func (h *Hello) Marshal(Format) ([]byte, error) {
	if err := h.validate(); err != nil {
		return nil, err
	}
	e := newEncoder(typeHello)
	e.uvarint(uint64(h.Worker))
	e.str(h.Scheme)
	e.str(h.Matcher)
	e.uvarint(uint64(h.Neighborhoods))
	e.uvarint(uint64(h.Entities))
	e.uvarint(uint64(h.HeartbeatNS))
	e.sortedKeys(h.Negative)
	return e.bytes(), nil
}

// UnmarshalHello decodes and validates a Hello.
func UnmarshalHello(b []byte) (*Hello, error) {
	dec, err := newDecoder(b, typeHello)
	if err != nil {
		return nil, err
	}
	h := &Hello{
		Worker:        int(dec.uvarint("worker")),
		Scheme:        dec.str("scheme"),
		Matcher:       dec.str("matcher"),
		Neighborhoods: int(dec.uvarint("neighborhoods")),
		Entities:      int(dec.uvarint("entities")),
		HeartbeatNS:   int64(dec.uvarint("heartbeat_ns")),
		Negative:      dec.sortedKeys("negative"),
	}
	if err := dec.finish(); err != nil {
		return nil, err
	}
	if err := h.validate(); err != nil {
		return nil, err
	}
	return h, nil
}

// Marshal serializes the assignment.
func (a *Assign) Marshal(Format) ([]byte, error) {
	if err := a.validate(); err != nil {
		return nil, err
	}
	e := newEncoder(typeAssign)
	e.uvarint(uint64(a.Round))
	e.uvarint(uint64(a.Epoch))
	e.uvarint(uint64(a.Part))
	e.uvarint(uint64(a.FromRound))
	if a.AllowSkip {
		e.uvarint(1)
	} else {
		e.uvarint(0)
	}
	e.sortedKeys(a.Keys)
	e.uvarint(uint64(len(a.IDs)))
	prev := int32(-1)
	for _, id := range a.IDs {
		e.uvarint(uint64(id - prev)) // ascending: difference-encode
		prev = id
	}
	return e.bytes(), nil
}

// UnmarshalAssign decodes and validates an Assign.
func UnmarshalAssign(b []byte) (*Assign, error) {
	dec, err := newDecoder(b, typeAssign)
	if err != nil {
		return nil, err
	}
	a := &Assign{
		Round:     int(dec.uvarint("round")),
		Epoch:     int(dec.uvarint("epoch")),
		Part:      int(dec.uvarint("part")),
		FromRound: int(dec.uvarint("from_round")),
		AllowSkip: dec.uvarint("allow_skip") != 0,
		Keys:      dec.sortedKeys("keys"),
	}
	if n := dec.count("ids"); n > 0 {
		a.IDs = make([]int32, n)
		prev := int64(-1)
		for i := range a.IDs {
			prev += int64(dec.uvarint("ids"))
			if prev > int64(1)<<31-1 {
				dec.fail("ids", "id overflows int32")
				prev = 0
			}
			a.IDs[i] = int32(prev)
		}
	}
	if err := dec.finish(); err != nil {
		return nil, err
	}
	if err := a.validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// Marshal serializes the heartbeat.
func (h *Heartbeat) Marshal(Format) ([]byte, error) {
	if err := h.validate(); err != nil {
		return nil, err
	}
	e := newEncoder(typeHeartbeat)
	e.uvarint(uint64(h.Worker))
	e.uvarint(uint64(h.Round))
	e.uvarint(uint64(h.Part))
	return e.bytes(), nil
}

// UnmarshalHeartbeat decodes and validates a Heartbeat.
func UnmarshalHeartbeat(b []byte) (*Heartbeat, error) {
	dec, err := newDecoder(b, typeHeartbeat)
	if err != nil {
		return nil, err
	}
	h := &Heartbeat{
		Worker: int(dec.uvarint("worker")),
		Round:  int(dec.uvarint("round")),
		Part:   int(dec.uvarint("part")),
	}
	if err := dec.finish(); err != nil {
		return nil, err
	}
	if err := h.validate(); err != nil {
		return nil, err
	}
	return h, nil
}
