package frame

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// TestSealOpen pins the envelope's rules at both ends: Seal appends one
// frame whose body goes out plain and comes back from Open unchanged — each
// body the retired lz pass once decided on among them — and Open refuses
// every malformed envelope, a body flagged compressed (bit 2) included.
func TestSealOpen(t *testing.T) {
	compressible := bytes.Repeat([]byte("parity bitmap sketch "), 200)
	noise := make([]byte, 2048)
	rand.New(rand.NewSource(1)).Read(noise)
	const oldThreshold = 512

	seal := []struct {
		name string
		body []byte
	}{
		{"compressible body under a grant", compressible},
		{"same body without a grant", compressible},
		{"below the threshold", compressible[:oldThreshold-1]},
		{"at the threshold", compressible[:oldThreshold]},
		{"incompressible", noise},
		{"empty", nil},
	}
	for _, tc := range seal {
		t.Run(tc.name, func(t *testing.T) {
			// Sealing appends: whatever dst held stays in front.
			out := Seal([]byte("prefix"), 7, FlagOpen, MsgRound, tc.body)[len("prefix"):]
			if want := Append(nil, MsgRound, append([]byte{7, FlagOpen}, tc.body...)); !bytes.Equal(out, want) {
				t.Fatalf("sealed %d bytes, want the %d of a plain envelope", len(out), len(want))
			}
			id, flags, body, err := Open(out[HeaderLen:])
			if err != nil {
				t.Fatal(err)
			}
			if id != 7 || flags != FlagOpen || !bytes.Equal(body, tc.body) {
				t.Fatalf("opened (%d, %#x, %d bytes), sealed (7, %#x, %d bytes)", id, flags, len(body), FlagOpen, len(tc.body))
			}
		})
	}

	refuse := []struct {
		name    string
		payload []byte
		want    string
	}{
		{"compressed without a grant", Seal(nil, 1, 1<<2, MsgRound, compressible)[HeaderLen:], "unknown flags 0x4"},
		{"compressed flag on a body that does not decode", Seal(nil, 1, 1<<2, MsgRound, []byte("not an lz stream"))[HeaderLen:], "unknown flags 0x4"},
		{"unknown flag", Seal(nil, 1, 1<<5, MsgRound, nil)[HeaderLen:], "unknown flags"},
		{"truncated stream ID", []byte{0x80}, "truncated stream ID"},
		{"truncated flags", []byte{0x01, 0x80}, "truncated flags"},
		{"empty", nil, "truncated stream ID"},
	}
	for _, tc := range refuse {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, _, err := Open(tc.payload); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}

// TestEnvelopeLen pins the envelope size a server charges a stream's frames
// at to what Seal writes, for every known flag set and IDs of every varint
// width.
func TestEnvelopeLen(t *testing.T) {
	for _, id := range []uint64{0, 1, 127, 128, 1<<14 - 1, 1 << 14, 1<<63 + 5} {
		for _, flags := range []uint64{0, FlagOpen, FlagClose, FlagOpen | FlagClose} {
			if got, want := EnvelopeLen(id), len(Seal(nil, id, flags, MsgRound, []byte("body")))-HeaderLen-len("body"); got != want {
				t.Errorf("EnvelopeLen(%d) = %d, Seal with flags %#x adds %d", id, got, flags, want)
			}
		}
	}
}

// TestFeatureBitsRideTheFlagWords pins the wire positions the feature
// bitmap's shift must land on: bits 1-2 of a hello's flags, bits 2-3 of a
// reply's, clear of every other flag.
func TestFeatureBitsRideTheFlagWords(t *testing.T) {
	for _, tc := range []struct {
		features          uint64
		helloFlags, reply byte
	}{
		{0, 0, 0},
		{FeatureMux, 1 << 1, 1 << 2},
		{FeatureLZ, 1 << 2, 1 << 3},
		{FeatureMux | FeatureLZ, 1<<1 | 1<<2, 1<<2 | 1<<3},
	} {
		all := Hello{Version: VersionMux, WantDigest: true, WantAdaptive: true, Features: tc.features}
		if got := AppendHello(nil, all)[1]; got != tc.helloFlags|1<<0|1<<3 {
			t.Fatalf("features %#x: hello flags %#b", tc.features, got)
		}
		rep := HelloReply{Version: VersionMux, Answered: true, Adaptive: true, Features: tc.features, Digest: []byte{1}}
		if got := AppendHelloReply(nil, rep)[1]; got != tc.reply|1<<0|1<<1|1<<4 {
			t.Fatalf("features %#x: reply flags %#b", tc.features, got)
		}
	}
}

// TestReadIntoLimitAndReuse covers the two promises ReadInto makes its
// callers: an over-limit frame is refused on its header alone with a
// *LimitError, and a buffer handed back in is reused, not reallocated.
func TestReadIntoLimitAndReuse(t *testing.T) {
	wire := Append(nil, MsgRound, make([]byte, 100))
	_, _, err := ReadInto(bytes.NewReader(wire[:HeaderLen]), 99, nil)
	var le *LimitError
	if !errors.As(err, &le) || le.N != 100 {
		t.Fatalf("err = %v, want a LimitError for 100 bytes", err)
	}
	buf := make([]byte, 0, 128)
	_, payload, err := ReadInto(bytes.NewReader(wire), 100, buf)
	if err != nil || len(payload) != 100 || &payload[0] != &buf[:1][0] {
		t.Fatalf("err = %v, %d-byte payload, reused = %v", err, len(payload), err == nil && &payload[0] == &buf[:1][0])
	}
	if _, _, err := ReadInto(bytes.NewReader(wire[:50]), 100, nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame: err = %v", err)
	}
}

// TestWriteAllAllocFree holds the steady-state write path to the pooled
// buffer: a one-frame write — every reply of a warm session — allocates
// nothing.
func TestWriteAllAllocFree(t *testing.T) {
	frames := []Frame{{Type: MsgRoundReply, Payload: make([]byte, 300)}}
	if n := testing.AllocsPerRun(100, func() { WriteAll(io.Discard, frames) }); n != 0 {
		t.Fatalf("WriteAll allocates %v times per frame", n)
	}
}
