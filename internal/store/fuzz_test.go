package store

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzSegmentRoundTrip pins the canonical-encoding property of the
// segment format: any byte string that decodes successfully re-encodes
// to the identical bytes. Combined with the corpus seeds below, the
// fuzzer both hunts decoder crashes on garbage and proves the format
// has no non-canonical degrees of freedom (sloppy varints, preamble
// slack, trailing bytes).
func FuzzSegmentRoundTrip(f *testing.F) {
	// Valid seeds at several shapes.
	seedBlocks := [][][]uint64{
		{{pk(1, 2)}},
		{{pk(1, 2), pk(1, 3), pk(2, 3)}},
		{{pk(0, 1), pk(0, 2)}, {pk(5, 9), pk(6, 7)}},
		{{pk(10, 11)}, {pk(20, 21)}, {pk(30, 31)}},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		keys := sortedKeys(rng, 200)
		seedBlocks = append(seedBlocks, splitBlocks(keys, 64))
	}
	for _, blocks := range seedBlocks {
		data, err := encodeSegment(blocks)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Structurally hostile seeds.
	f.Add([]byte{})
	f.Add([]byte("CEMS"))
	f.Add([]byte("CEMSxxxx"))
	f.Add(append(append([]byte("CEMS\x01"), []byte("CEMZ")...), 0, 0, 0, 0))
	f.Add([]byte(`{"round":0,"keys":[4294967298]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		blocks, err := parseSegment(data)
		if err != nil {
			return // rejected input: the only other acceptable outcome
		}
		re, err := encodeSegment(blocks)
		if err != nil {
			t.Fatalf("decoded segment failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("non-canonical accept: %d bytes decoded, re-encoded to %d different bytes", len(data), len(re))
		}
		// And the decode is self-consistent.
		again, err := parseSegment(re)
		if err != nil {
			t.Fatalf("re-encoded segment failed to parse: %v", err)
		}
		if len(again) != len(blocks) {
			t.Fatalf("block count changed across round trip: %d -> %d", len(blocks), len(again))
		}
	})
}
