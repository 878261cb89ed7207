package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
)

// sampleFrames builds a small valid frame stream and its parsed form.
func sampleFrames(t *testing.T) ([]byte, []byte) {
	t.Helper()
	hello, err := (&Hello{Worker: 2, Scheme: "SMP", Matcher: "mln",
		Neighborhoods: 9, Entities: 27, HeartbeatNS: 5e6}).Marshal(Binary)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := (&Assign{Round: 3, Epoch: 1, Part: 2, FromRound: 2, AllowSkip: true,
		Keys: []uint64{1<<32 | 2, 1<<32 | 7, 3<<32 | 5}, IDs: []int32{2, 5, 8}}).Marshal(Binary)
	if err != nil {
		t.Fatal(err)
	}
	var stream []byte
	for _, fr := range []struct {
		t byte
		p []byte
	}{{FrameHello, hello}, {FrameAssign, assign}, {FrameHeartbeat, nil}} {
		stream, err = AppendFrame(stream, fr.t, fr.p)
		if err != nil {
			t.Fatal(err)
		}
	}
	return stream, assign
}

func TestFrameRoundTrip(t *testing.T) {
	stream, assign := sampleFrames(t)
	r := bytes.NewReader(stream)
	ft, payload, err := ReadFrame(r)
	if err != nil || ft != FrameHello {
		t.Fatalf("first frame: type %d err %v", ft, err)
	}
	if _, err := UnmarshalHello(payload); err != nil {
		t.Fatalf("hello payload: %v", err)
	}
	ft, payload, err = ReadFrame(r)
	if err != nil || ft != FrameAssign {
		t.Fatalf("second frame: type %d err %v", ft, err)
	}
	if !bytes.Equal(payload, assign) {
		t.Fatal("assign payload mutated in transit")
	}
	got, err := UnmarshalAssign(payload)
	if err != nil {
		t.Fatalf("assign payload: %v", err)
	}
	want := &Assign{Round: 3, Epoch: 1, Part: 2, FromRound: 2, AllowSkip: true,
		Keys: []uint64{1<<32 | 2, 1<<32 | 7, 3<<32 | 5}, IDs: []int32{2, 5, 8}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("assign round trip:\ngot:  %+v\nwant: %+v", got, want)
	}
	if ft, payload, err = ReadFrame(r); err != nil || ft != FrameHeartbeat || len(payload) != 0 {
		t.Fatalf("third frame: type %d len %d err %v", ft, len(payload), err)
	}
	if _, _, err = ReadFrame(r); err != io.EOF {
		t.Fatalf("end of stream: want io.EOF, got %v", err)
	}
}

// TestFrameTruncation cuts a valid stream at every byte boundary: each
// strict prefix must decode its whole frames and then report the typed
// ErrTruncated — never a panic, never a silent acceptance, and io.EOF
// only at exact frame boundaries.
func TestFrameTruncation(t *testing.T) {
	stream, _ := sampleFrames(t)
	boundaries := map[int]bool{0: true, len(stream): true}
	r := bytes.NewReader(stream)
	for {
		if _, _, err := ReadFrame(r); err != nil {
			break
		}
		boundaries[len(stream)-r.Len()] = true
	}
	for cut := 0; cut < len(stream); cut++ {
		r := bytes.NewReader(stream[:cut])
		var err error
		for {
			if _, _, err = ReadFrame(r); err != nil {
				break
			}
		}
		if boundaries[cut] {
			if err != io.EOF {
				t.Fatalf("cut %d (frame boundary): want io.EOF, got %v", cut, err)
			}
		} else if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut %d: want ErrTruncated, got %v", cut, err)
		}
	}
}

func TestFrameHeaderErrors(t *testing.T) {
	frame, err := AppendFrame(nil, FrameBatch, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func([]byte) []byte{
		"bad magic":    func(b []byte) []byte { b[0] = 'X'; return b },
		"bad version":  func(b []byte) []byte { b[4] = 99; return b },
		"unknown type": func(b []byte) []byte { b[5] = 200; return b },
		"oversize count": func(b []byte) []byte {
			b[6], b[7], b[8], b[9] = 0xFF, 0xFF, 0xFF, 0xFF
			return b
		},
	}
	for name, mutate := range cases {
		b := mutate(append([]byte(nil), frame...))
		if _, _, err := ReadFrame(bytes.NewReader(b)); err == nil || errors.Is(err, ErrTruncated) {
			t.Errorf("%s: want a header error, got %v", name, err)
		}
	}
	if _, err := AppendFrame(nil, 99, nil); err == nil {
		t.Error("AppendFrame accepted an unknown frame type")
	}
	if err := WriteFrame(io.Discard, FrameBatch, make([]byte, MaxFramePayload+1)); err == nil {
		t.Error("WriteFrame accepted an oversized payload")
	}
}

func TestControlMessageValidation(t *testing.T) {
	bad := []interface {
		Marshal(Format) ([]byte, error)
	}{
		&Hello{Worker: -1},
		&Hello{Scheme: string([]byte{0xff, 0xfe})},
		&Assign{Round: 2, FromRound: 3},
		&Assign{Keys: []uint64{5<<32 | 2}}, // invalid pair key (A >= B)
		&Assign{IDs: []int32{4, 2}},
		&Assign{IDs: []int32{-1}},
		&Heartbeat{Round: -1},
	}
	for i, m := range bad {
		if _, err := m.Marshal(Binary); err == nil {
			t.Errorf("case %d (%T): invalid message marshaled", i, m)
		}
	}
}

func TestControlMessageRoundTrip(t *testing.T) {
	a := &Assign{Round: 7, Epoch: 2, Part: 1, FromRound: 4,
		Keys: []uint64{2<<32 | 9}, IDs: []int32{0, 7}}
	roundTrip(t, a,
		func() ([]byte, error) { return a.Marshal(Binary) },
		func(b []byte) (any, error) { return UnmarshalAssign(b) })
	h := &Hello{Worker: 1, Scheme: "MMP", Matcher: "mln", Neighborhoods: 4, Entities: 12, HeartbeatNS: 1e6}
	roundTrip(t, h,
		func() ([]byte, error) { return h.Marshal(Binary) },
		func(b []byte) (any, error) { return UnmarshalHello(b) })
	hb := &Heartbeat{Worker: 3, Round: 9, Part: 2}
	roundTrip(t, hb,
		func() ([]byte, error) { return hb.Marshal(Binary) },
		func(b []byte) (any, error) { return UnmarshalHeartbeat(b) })
}

// randFrameStream encodes a random mix of frames.
func randFrameStream(rng *rand.Rand) []byte {
	var stream []byte
	n := 1 + rng.Intn(4)
	for i := 0; i < n; i++ {
		var payload []byte
		ft := FrameHello + byte(rng.Intn(int(FrameHeartbeat)))
		switch rng.Intn(5) {
		case 0:
			payload, _ = (&Hello{Worker: rng.Intn(8), Scheme: "SMP",
				Neighborhoods: rng.Intn(50), Entities: rng.Intn(150)}).Marshal(Binary)
		case 1:
			payload, _ = (&Assign{Round: rng.Intn(9), Epoch: rng.Intn(3), Part: rng.Intn(4),
				Keys: randKeys(rng, rng.Intn(10))}).Marshal(Binary)
		case 2:
			payload, _ = randBatch(rng).Marshal(Binary)
		case 3:
			payload, _ = (&Heartbeat{Worker: rng.Intn(8), Round: rng.Intn(9), Part: rng.Intn(4)}).Marshal(Binary)
		case 4: // raw junk payload: frames carry opaque bytes
			payload = make([]byte, rng.Intn(32))
			rng.Read(payload)
		}
		stream, _ = AppendFrame(stream, ft, payload)
	}
	return stream
}

// FuzzFrameRoundTrip feeds the frame reader arbitrary byte streams: it
// must never panic, and every strict prefix of whatever it accepts must
// fail with the typed ErrTruncated (or io.EOF exactly at a frame
// boundary) — the torn-connection guarantee the distributed backend's
// retry path relies on. Control-message payloads are additionally
// round-tripped.
func FuzzFrameRoundTrip(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		f.Add(randFrameStream(rng))
	}
	f.Add([]byte("CEMF"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		// Decode whatever prefix of b parses as frames.
		r := bytes.NewReader(b)
		type frame struct {
			t byte
			p []byte
		}
		var frames []frame
		for {
			ft, payload, err := ReadFrame(r)
			if err != nil {
				break
			}
			frames = append(frames, frame{ft, payload})
			// Control payloads must round-trip losslessly or be rejected;
			// either way, never panic.
			if h, err := UnmarshalHello(payload); err == nil {
				roundTrip(t, h,
					func() ([]byte, error) { return h.Marshal(Binary) },
					func(b []byte) (any, error) { return UnmarshalHello(b) })
			}
			if a, err := UnmarshalAssign(payload); err == nil {
				roundTrip(t, a,
					func() ([]byte, error) { return a.Marshal(Binary) },
					func(b []byte) (any, error) { return UnmarshalAssign(b) })
			}
			if hb, err := UnmarshalHeartbeat(payload); err == nil {
				roundTrip(t, hb,
					func() ([]byte, error) { return hb.Marshal(Binary) },
					func(b []byte) (any, error) { return UnmarshalHeartbeat(b) })
			}
		}

		// Re-encode the accepted frames: the canonical stream. Every
		// strict prefix must yield exactly the full frames before the
		// cut, then ErrTruncated (or io.EOF at a boundary).
		var canon []byte
		var err error
		for _, fr := range frames {
			if canon, err = AppendFrame(canon, fr.t, fr.p); err != nil {
				t.Fatalf("accepted frame fails to re-encode: %v", err)
			}
		}
		if len(canon) > 4096 {
			return // bound the quadratic prefix sweep
		}
		boundaries := make(map[int]bool, len(frames)+1)
		off := 0
		boundaries[0] = true
		for _, fr := range frames {
			off += frameHeaderLen + len(fr.p)
			boundaries[off] = true
		}
		for cut := 0; cut <= len(canon); cut++ {
			r := bytes.NewReader(canon[:cut])
			n := 0
			var err error
			for {
				if _, _, err = ReadFrame(r); err != nil {
					break
				}
				n++
			}
			if boundaries[cut] {
				if err != io.EOF {
					t.Fatalf("cut %d at boundary: want io.EOF after %d frames, got %v", cut, n, err)
				}
			} else if !errors.Is(err, ErrTruncated) {
				t.Fatalf("cut %d mid-frame: want ErrTruncated, got %v", cut, err)
			}
		}
	})
}
