package wire

import (
	"encoding/binary"
	"fmt"
)

// magic opens every message.
var magic = [4]byte{'C', 'E', 'M', 'W'}

// encoder builds a message: magic, version, type tag, then
// varint-encoded payload fields.
type encoder struct {
	buf []byte
}

func newEncoder(msgType byte) *encoder {
	e := &encoder{buf: make([]byte, 0, 256)}
	e.buf = append(e.buf, magic[:]...)
	e.buf = append(e.buf, Version, msgType)
	return e
}

func (e *encoder) uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// sortedKeys difference-encodes a strictly increasing key batch: the
// first key raw, then successive gaps (≥ 1). Adjacent candidate pairs
// share high bits, so gaps are small and the batch compresses well.
func (e *encoder) sortedKeys(keys []uint64) {
	e.uvarint(uint64(len(keys)))
	prev := uint64(0)
	for i, k := range keys {
		if i == 0 {
			e.uvarint(k)
		} else {
			e.uvarint(k - prev)
		}
		prev = k
	}
}

// keyGroups encodes a list of key groups, order- and grouping-preserving
// (groups are not sorted; raw keys).
func (e *encoder) keyGroups(groups [][]uint64) {
	e.uvarint(uint64(len(groups)))
	for _, g := range groups {
		e.uvarint(uint64(len(g)))
		for _, k := range g {
			e.uvarint(k)
		}
	}
}

func (e *encoder) bytes() []byte { return e.buf }

// decoder consumes a message, collecting the first error instead
// of forcing err checks on every field read. Length-prefixed fields are
// bounds-checked against the remaining input (every element costs at
// least one byte), so corrupt counts cannot trigger huge allocations.
type decoder struct {
	buf []byte
	off int
	err error
}

// newDecoder checks the header — magic, version, message type — of
// input that may come from anywhere: a socket, a file, a fuzzer.
func newDecoder(b []byte, wantType byte) (*decoder, error) {
	if len(b) < len(magic) || string(b[:len(magic)]) != string(magic[:]) {
		return nil, fmt.Errorf("wire: not a wire message (bad magic)")
	}
	d := &decoder{buf: b, off: len(magic)}
	if len(b) < len(magic)+2 {
		return nil, fmt.Errorf("wire: truncated header")
	}
	if v := b[d.off]; v != Version {
		return nil, fmt.Errorf("wire: unsupported version %d (want %d)", v, Version)
	}
	d.off++
	if tt := b[d.off]; tt != wantType {
		return nil, fmt.Errorf("wire: message type %d, want %d", tt, wantType)
	}
	d.off++
	return d, nil
}

func (d *decoder) fail(field, msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: %s: %s", field, msg)
	}
}

func (d *decoder) uvarint(field string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail(field, "bad varint")
		return 0
	}
	d.off += n
	return v
}

// count reads a length prefix and bounds it by the remaining bytes.
func (d *decoder) count(field string) int {
	v := d.uvarint(field)
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.buf)-d.off) {
		d.fail(field, fmt.Sprintf("count %d exceeds remaining input", v))
		return 0
	}
	return int(v)
}

func (d *decoder) str(field string) string {
	n := d.count(field)
	if d.err != nil {
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

func (d *decoder) sortedKeys(field string) []uint64 {
	n := d.count(field)
	if d.err != nil || n == 0 {
		return nil
	}
	keys := make([]uint64, n)
	prev := uint64(0)
	for i := range keys {
		gap := d.uvarint(field)
		if d.err != nil {
			return nil
		}
		if i == 0 {
			prev = gap
		} else {
			if gap == 0 || gap > ^prev {
				d.fail(field, "keys not strictly increasing")
				return nil
			}
			prev += gap
		}
		keys[i] = prev
	}
	return keys
}

func (d *decoder) keyGroups(field string) [][]uint64 {
	n := d.count(field)
	if d.err != nil || n == 0 {
		return nil
	}
	groups := make([][]uint64, n)
	for i := range groups {
		m := d.count(field)
		if d.err != nil {
			return nil
		}
		g := make([]uint64, m)
		for j := range g {
			g[j] = d.uvarint(field)
		}
		groups[i] = g
	}
	return groups
}

// finish verifies the message was consumed exactly.
func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("wire: %d trailing bytes after message", len(d.buf)-d.off)
	}
	return nil
}
