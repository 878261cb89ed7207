package store

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/wire"
)

// Segment file format — the disk store's evidence unit.
//
// A segment is an immutable, sorted run of evidence keys, written in
// one shot (one durable Trail commit) and never modified. The keys are
// split into blocks of at most blockKeys entries; each block's payload
// is a binary wire.Delta (difference-encoded sorted keys — the same
// fuzzed codec the distributed backend ships deltas with), preceded by
// a fixed preamble carrying the block's min/max key, count and payload
// length, so opening a segment can build its sparse in-memory index by
// reading preambles without materializing any keys:
//
//	"CEMS" | version(1)
//	repeat per block:
//	  minKey uint64be | maxKey uint64be | count uint32be | plen uint32be
//	  payload (wire.Delta, Binary, Round = block ordinal)
//	"CEMZ" | blockCount uint32be
//
// The encoding is canonical: a segment that decodes successfully
// re-encodes to the identical bytes (FuzzSegmentRoundTrip pins this).
// Decoding therefore rejects every non-canonical degree of freedom:
// JSON payloads, non-minimal varints (payloads are re-marshaled and
// byte-compared), preambles disagreeing with their payload, blocks out
// of order or overlapping, and trailing garbage.

const (
	segVersion          = 1
	defaultBlockKeys    = 4096
	defaultCompactEvery = 8
	segPreambleLen      = 8 + 8 + 4 + 4
)

var (
	segMagic       = []byte("CEMS")
	segFooterMagic = []byte("CEMZ")
)

// segBlock is one block's sparse-index entry: its key bounds and where
// its payload lives inside the segment file.
type segBlock struct {
	min, max uint64
	count    int
	off      int // payload offset within the segment file
	plen     int // payload length
}

// encodeSegment serializes key blocks into the canonical segment
// format. Blocks must be non-empty, each strictly increasing, and
// strictly ordered against each other (prev max < next min).
func encodeSegment(blocks [][]uint64) ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(segMagic)
	buf.WriteByte(segVersion)
	var prevMax uint64
	for i, keys := range blocks {
		if len(keys) == 0 {
			return nil, fmt.Errorf("store: segment block %d is empty", i)
		}
		if i > 0 && keys[0] <= prevMax {
			return nil, fmt.Errorf("store: segment block %d overlaps its predecessor", i)
		}
		payload, err := (&wire.Delta{Round: i, Keys: keys}).Marshal(wire.Binary)
		if err != nil {
			return nil, fmt.Errorf("store: encoding segment block %d: %w", i, err)
		}
		var pre [segPreambleLen]byte
		binary.BigEndian.PutUint64(pre[0:], keys[0])
		binary.BigEndian.PutUint64(pre[8:], keys[len(keys)-1])
		binary.BigEndian.PutUint32(pre[16:], uint32(len(keys)))
		binary.BigEndian.PutUint32(pre[20:], uint32(len(payload)))
		buf.Write(pre[:])
		buf.Write(payload)
		prevMax = keys[len(keys)-1]
	}
	buf.Write(segFooterMagic)
	var cnt [4]byte
	binary.BigEndian.PutUint32(cnt[:], uint32(len(blocks)))
	buf.Write(cnt[:])
	return buf.Bytes(), nil
}

// splitBlocks chops one strictly-increasing key batch into blocks of at
// most blockKeys entries.
func splitBlocks(keys []uint64, blockKeys int) [][]uint64 {
	if blockKeys <= 0 {
		blockKeys = defaultBlockKeys
	}
	var blocks [][]uint64
	for len(keys) > 0 {
		n := min(blockKeys, len(keys))
		blocks = append(blocks, keys[:n])
		keys = keys[n:]
	}
	return blocks
}

// walkSegment fully decodes and validates a segment, invoking fn once
// per block with its index entry and decoded keys. Any structural
// damage — truncation anywhere, a preamble disagreeing with its
// payload, a non-canonical payload, trailing bytes — is an error.
func walkSegment(data []byte, fn func(meta segBlock, keys []uint64) error) error {
	if len(data) < len(segMagic)+1 {
		return fmt.Errorf("store: segment truncated before header")
	}
	if !bytes.Equal(data[:len(segMagic)], segMagic) {
		return fmt.Errorf("store: bad segment magic")
	}
	if v := data[len(segMagic)]; v != segVersion {
		return fmt.Errorf("store: unknown segment version %d", v)
	}
	off := len(segMagic) + 1
	var (
		prevMax uint64
		nblocks int
	)
	for {
		if len(data)-off >= len(segFooterMagic) && bytes.Equal(data[off:off+len(segFooterMagic)], segFooterMagic) {
			off += len(segFooterMagic)
			if len(data)-off < 4 {
				return fmt.Errorf("store: segment truncated inside footer")
			}
			if got := int(binary.BigEndian.Uint32(data[off:])); got != nblocks {
				return fmt.Errorf("store: segment footer counts %d blocks, file holds %d", got, nblocks)
			}
			off += 4
			if off != len(data) {
				return fmt.Errorf("store: %d trailing bytes after segment footer", len(data)-off)
			}
			return nil
		}
		if len(data)-off < segPreambleLen {
			return fmt.Errorf("store: segment truncated inside block %d preamble", nblocks)
		}
		meta := segBlock{
			min:   binary.BigEndian.Uint64(data[off:]),
			max:   binary.BigEndian.Uint64(data[off+8:]),
			count: int(binary.BigEndian.Uint32(data[off+16:])),
			plen:  int(binary.BigEndian.Uint32(data[off+20:])),
		}
		off += segPreambleLen
		meta.off = off
		if meta.plen > wire.MaxFramePayload {
			return fmt.Errorf("store: segment block %d payload %d exceeds limit", nblocks, meta.plen)
		}
		if len(data)-off < meta.plen {
			return fmt.Errorf("store: segment truncated inside block %d payload", nblocks)
		}
		payload := data[off : off+meta.plen]
		off += meta.plen
		keys, err := decodeBlock(payload, nblocks, meta, prevMax)
		if err != nil {
			return err
		}
		if err := fn(meta, keys); err != nil {
			return err
		}
		prevMax = meta.max
		nblocks++
	}
}

// decodeBlock decodes one block payload and cross-checks it against its
// preamble and predecessor. The payload must be the canonical binary
// encoding — it is re-marshaled and byte-compared, so a decoded segment
// always re-encodes identically.
func decodeBlock(payload []byte, ordinal int, meta segBlock, prevMax uint64) ([]uint64, error) {
	d, err := wire.UnmarshalDelta(payload)
	if err != nil {
		return nil, fmt.Errorf("store: segment block %d: %w", ordinal, err)
	}
	if d.Round != ordinal {
		return nil, fmt.Errorf("store: segment block %d carries ordinal %d", ordinal, d.Round)
	}
	if len(d.Keys) == 0 {
		return nil, fmt.Errorf("store: segment block %d is empty", ordinal)
	}
	if len(d.Keys) != meta.count {
		return nil, fmt.Errorf("store: segment block %d preamble counts %d keys, payload holds %d",
			ordinal, meta.count, len(d.Keys))
	}
	if d.Keys[0] != meta.min || d.Keys[len(d.Keys)-1] != meta.max {
		return nil, fmt.Errorf("store: segment block %d preamble bounds disagree with payload", ordinal)
	}
	if ordinal > 0 && meta.min <= prevMax {
		return nil, fmt.Errorf("store: segment block %d overlaps its predecessor", ordinal)
	}
	canonical, err := d.Marshal(wire.Binary)
	if err != nil {
		return nil, fmt.Errorf("store: segment block %d: %w", ordinal, err)
	}
	if !bytes.Equal(canonical, payload) {
		return nil, fmt.Errorf("store: segment block %d payload is not canonical", ordinal)
	}
	return d.Keys, nil
}

// parseSegment decodes a whole segment into its block key slices — the
// fuzz target's view (encodeSegment(parseSegment(x)) == x).
func parseSegment(data []byte) ([][]uint64, error) {
	var blocks [][]uint64
	err := walkSegment(data, func(_ segBlock, keys []uint64) error {
		blocks = append(blocks, keys)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return blocks, nil
}
