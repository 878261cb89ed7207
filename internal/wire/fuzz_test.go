package wire

import (
	"math/rand"
	"testing"
)

// FuzzWireRoundTrip drives the three decoders with arbitrary bytes: a
// decoder must never panic, and anything it accepts must re-encode and
// re-decode to the same value (the evidence-delta codec is the integrity
// boundary of the sharded backend and of checkpoint/resume — a silent
// mutation here corrupts runs).
func FuzzWireRoundTrip(f *testing.F) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 16; i++ {
		if b, err := randDelta(rng).Marshal(Binary); err == nil {
			f.Add(b)
		}
		if b, err := randBatch(rng).Marshal(Binary); err == nil {
			f.Add(b)
		}
		if b, err := randCheckpoint(rng).Marshal(Binary); err == nil {
			f.Add(b)
		}
	}
	f.Add([]byte("CEMW"))
	f.Add([]byte(`{"cemw":1,"type":1,"msg":{"round":0,"keys":[]}}`))

	f.Fuzz(func(t *testing.T, b []byte) {
		if d, err := UnmarshalDelta(b); err == nil {
			roundTrip(t, d,
				func() ([]byte, error) { return d.Marshal(Binary) },
				func(b []byte) (any, error) { return UnmarshalDelta(b) })
		}
		if sb, err := UnmarshalShardBatch(b); err == nil {
			roundTrip(t, sb,
				func() ([]byte, error) { return sb.Marshal(Binary) },
				func(b []byte) (any, error) { return UnmarshalShardBatch(b) })
		}
		if c, err := UnmarshalCheckpoint(b); err == nil {
			roundTrip(t, c,
				func() ([]byte, error) { return c.Marshal(Binary) },
				func(b []byte) (any, error) { return UnmarshalCheckpoint(b) })
		}
	})
}
