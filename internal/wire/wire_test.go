package wire

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// The random messages below are in the decoder's form, so a round trip
// compares with reflect.DeepEqual: an empty key list is nil, a batch's
// job list is allocated even when empty.

// randKeys produces n strictly increasing valid pair keys.
func randKeys(rng *rand.Rand, n int) []uint64 {
	set := map[uint64]struct{}{}
	for len(set) < n {
		a := rng.Int31n(1000)
		b := rng.Int31n(1000)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		set[uint64(a)<<32|uint64(uint32(b))] = struct{}{}
	}
	var keys []uint64
	for k := range set {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// randGroups produces unordered key groups (maximal-message shaped).
func randGroups(rng *rand.Rand, n int) [][]uint64 {
	if n == 0 {
		return nil
	}
	groups := make([][]uint64, n)
	for i := range groups {
		g := randKeys(rng, 1+rng.Intn(5))
		rng.Shuffle(len(g), func(a, b int) { g[a], g[b] = g[b], g[a] })
		groups[i] = g
	}
	return groups
}

func randDelta(rng *rand.Rand) *Delta {
	return &Delta{Round: rng.Intn(100), Keys: randKeys(rng, rng.Intn(50))}
}

func randBatch(rng *rand.Rand) *ShardBatch {
	b := &ShardBatch{Round: rng.Intn(100), Shard: rng.Intn(16), Epoch: rng.Intn(5), Jobs: make([]Job, rng.Intn(8))}
	for i := range b.Jobs {
		b.Jobs[i] = Job{
			ID:      rng.Int31n(500),
			Skipped: rng.Intn(4) == 0,
			Active:  rng.Intn(40),
			Calls:   rng.Intn(10),
			Dur:     rng.Int63n(1e9),
			Matches: randKeys(rng, rng.Intn(20)),
			Msgs:    randGroups(rng, rng.Intn(3)),
		}
	}
	return b
}

func randCheckpoint(rng *rand.Rand) *Checkpoint {
	n := 1 + rng.Intn(40)
	c := &Checkpoint{
		Scheme:        []string{"SMP", "MMP", "NO-MP"}[rng.Intn(3)],
		Neighborhoods: n,
		Entities:      n * 3,
		Round:         1 + rng.Intn(10),
		Done:          rng.Intn(2) == 0,
		Delta:         randKeys(rng, rng.Intn(30)),
		Messages:      randGroups(rng, rng.Intn(4)),
		Visits:        make([]int, n),
	}
	for i := range c.Visits {
		c.Visits[i] = rng.Intn(5)
	}
	for id := 0; id < n; id++ {
		if rng.Intn(3) == 0 {
			c.Active = append(c.Active, int32(id))
		}
	}
	c.Stats = Stats{
		Neighborhoods: n,
		MatcherCalls:  rng.Intn(1000),
		Evaluations:   rng.Intn(1000),
		MaxRevisits:   rng.Intn(10),
		MessagesSent:  rng.Intn(1000),
		ScoreChecks:   rng.Intn(100),
		Skips:         rng.Intn(50),
		ElapsedNS:     rng.Int63n(1e12),
		MatcherTimeNS: rng.Int63n(1e12),
	}
	for i := 0; i < rng.Intn(20); i++ {
		c.Stats.ActiveSizes = append(c.Stats.ActiveSizes, rng.Intn(100))
	}
	return c
}

// TestRoundTripProperty: randomly generated messages round-trip to an
// identical value.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		d := randDelta(rng)
		roundTrip(t, d,
			func() ([]byte, error) { return d.Marshal(Binary) },
			func(b []byte) (any, error) { return UnmarshalDelta(b) })

		sb := randBatch(rng)
		roundTrip(t, sb,
			func() ([]byte, error) { return sb.Marshal(Binary) },
			func(b []byte) (any, error) { return UnmarshalShardBatch(b) })

		c := randCheckpoint(rng)
		roundTrip(t, c,
			func() ([]byte, error) { return c.Marshal(Binary) },
			func(b []byte) (any, error) { return UnmarshalCheckpoint(b) })
	}
}

// roundTrip asserts that want marshals, and decodes back to itself.
func roundTrip(t *testing.T, want any, marshal func() ([]byte, error), unmarshal func([]byte) (any, error)) {
	t.Helper()
	b, err := marshal()
	if err != nil {
		t.Fatalf("marshal: %v\nmsg: %+v", err, want)
	}
	got, err := unmarshal(b)
	if err != nil {
		t.Fatalf("unmarshal: %v\ninput: %q", err, b)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip diverged:\ngot:  %+v\nwant: %+v", got, want)
	}
}

// TestBinaryCompact: difference-encoding should store a realistic delta
// batch in well under the bytes of its keys as plain varints.
func TestBinaryCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := &Delta{Round: 3, Keys: randKeys(rng, 500)}
	bin, err := d.Marshal(Binary)
	if err != nil {
		t.Fatal(err)
	}
	plain := 0
	for _, k := range d.Keys {
		plain += len(binary.AppendUvarint(nil, k))
	}
	if len(bin)*4 > plain*3 {
		t.Errorf("binary delta not compact: %d bytes, %d as plain varints", len(bin), plain)
	}
}

// TestRejectsInvalid: structurally invalid messages fail to encode, and
// fail to decode when their bytes are written anyway.
func TestRejectsInvalid(t *testing.T) {
	if _, err := (&Delta{Keys: []uint64{5}}).Marshal(Binary); err != nil {
		t.Errorf("key 5 = pair (0,5) should be valid, got %v", err)
	}
	bad := []*Delta{
		{Keys: []uint64{uint64(7)<<32 | 7}},             // reflexive pair
		{Keys: []uint64{uint64(9)<<32 | 4}},             // unnormalized (A > B)
		{Keys: []uint64{uint64(1)<<32 | 2, 1<<32 | 2}},  // duplicate
		{Keys: []uint64{uint64(2)<<32 | 3, 1<<32 | 5}},  // unsorted
		{Keys: []uint64{uint64(1)<<32 | uint64(1)<<31}}, // B overflows int32
		{Round: -1, Keys: []uint64{uint64(1)<<32 | 2}},  // negative round
	}
	for _, d := range bad {
		if _, err := d.Marshal(Binary); err == nil {
			t.Errorf("Marshal accepted invalid delta %+v", d)
		}
	}

	// The decode side, on bytes written by the encoder, which does not
	// validate.
	delta := func(msgType byte, keys ...uint64) []byte {
		e := newEncoder(msgType)
		e.uvarint(1)
		e.sortedKeys(keys)
		return e.bytes()
	}
	future, badMagic := delta(typeDelta), delta(typeDelta)
	future[len(magic)], badMagic[0] = Version+1, 'X'
	for name, b := range map[string][]byte{
		"an out-of-range key":        delta(typeDelta, 1<<64-1),
		"a future version":           future,
		"a bad magic":                badMagic,
		"a checkpoint-typed message": delta(typeCheckpoint),
	} {
		if _, err := UnmarshalDelta(b); err == nil {
			t.Errorf("UnmarshalDelta accepted %s", name)
		}
	}
	c := &Checkpoint{Scheme: "SMP", Neighborhoods: 3, Entities: 9, Round: 1, Visits: []int{1},
		Stats: Stats{Neighborhoods: 3}}
	if _, err := UnmarshalCheckpoint(c.encode()); err == nil {
		t.Error("UnmarshalCheckpoint accepted mismatched visits length")
	}

	// A message in the JSON envelope older builds wrote is not a wire
	// message: every decoder refuses it.
	decoders := []struct {
		typ    int
		decode func([]byte) error
	}{
		{typeDelta, func(b []byte) error { _, err := UnmarshalDelta(b); return err }},
		{typeShardBatch, func(b []byte) error { _, err := UnmarshalShardBatch(b); return err }},
		{typeCheckpoint, func(b []byte) error { _, err := UnmarshalCheckpoint(b); return err }},
		{typeHello, func(b []byte) error { _, err := UnmarshalHello(b); return err }},
		{typeAssign, func(b []byte) error { _, err := UnmarshalAssign(b); return err }},
		{typeHeartbeat, func(b []byte) error { _, err := UnmarshalHeartbeat(b); return err }},
	}
	for _, d := range decoders {
		env := fmt.Sprintf(`{"cemw":%d,"type":%d,"msg":{"round":1}}`, Version, d.typ)
		if err := d.decode([]byte(env)); err == nil {
			t.Errorf("the decoder of type %d accepted a JSON envelope", d.typ)
		}
	}
}

// TestTruncatedBinary: every prefix of a valid binary message must fail
// cleanly, never panic.
func TestTruncatedBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := randCheckpoint(rng)
	b, err := c.Marshal(Binary)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(b); i++ {
		if _, err := UnmarshalCheckpoint(b[:i]); err == nil {
			t.Fatalf("accepted truncated message at %d/%d bytes", i, len(b))
		}
	}
	if _, err := UnmarshalCheckpoint(append(append([]byte{}, b...), 0)); err == nil {
		t.Fatal("accepted trailing garbage")
	}
}
