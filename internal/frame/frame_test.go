package frame

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// TestSealOpen pins the envelope's rules at both ends: what Seal compresses
// and what it leaves plain, that saved is exactly the byte difference on
// the wire, and every envelope Open must refuse.
func TestSealOpen(t *testing.T) {
	compressible := bytes.Repeat([]byte("parity bitmap sketch "), 200)
	noise := make([]byte, 4*compressMin)
	rand.New(rand.NewSource(1)).Read(noise)

	seal := []struct {
		name       string
		body       []byte
		lzOn       bool
		compressed bool
	}{
		{"compressible body under a grant", compressible, true, true},
		{"same body without a grant", compressible, false, false},
		{"below the threshold", compressible[:compressMin-1], true, false},
		{"at the threshold", compressible[:compressMin], true, true},
		{"incompressible", noise, true, false},
		{"empty", nil, true, false},
	}
	for _, tc := range seal {
		t.Run(tc.name, func(t *testing.T) {
			plain, plainSaved := Seal(nil, 7, FlagOpen, MsgRound, tc.body, false)
			if plainSaved != 0 {
				t.Fatalf("plain seal reports %d bytes saved", plainSaved)
			}
			// Sealing appends: whatever dst held stays in front.
			out, saved := Seal([]byte("prefix"), 7, FlagOpen, MsgRound, tc.body, tc.lzOn)
			out = out[len("prefix"):]
			if saved != len(plain)-len(out) {
				t.Fatalf("saved = %d, wire shrank by %d", saved, len(plain)-len(out))
			}
			if (saved > 0) != tc.compressed {
				t.Fatalf("saved = %d, want compressed = %v", saved, tc.compressed)
			}
			n, typ := ParseHeader(out)
			if int(n) != len(out)-HeaderLen || typ != MsgRound {
				t.Fatalf("outer header says %d bytes of type %d for a %d-byte frame", n, typ, len(out))
			}
			id, flags, body, opened, err := Open(out[HeaderLen:], tc.lzOn)
			if err != nil {
				t.Fatal(err)
			}
			wantFlags := uint64(FlagOpen)
			if tc.compressed {
				wantFlags |= FlagCompressed
			}
			if id != 7 || flags != wantFlags || !bytes.Equal(body, tc.body) || opened != saved {
				t.Fatalf("opened (%d, %#x, %d bytes, saved %d), sealed (7, %#x, %d bytes, saved %d)",
					id, flags, len(body), opened, wantFlags, len(tc.body), saved)
			}
		})
	}

	compressedFrame, _ := Seal(nil, 1, 0, MsgRound, compressible, true)
	lying, _ := Seal(nil, 1, FlagCompressed, MsgRound, []byte("not an lz stream"), false)
	unknown, _ := Seal(nil, 1, 1<<5, MsgRound, nil, false)
	refuse := []struct {
		name    string
		payload []byte
		granted bool
		want    string
	}{
		{"compressed without a grant", compressedFrame[HeaderLen:], false, "without an lz grant"},
		{"compressed flag on a body that does not decode", lying[HeaderLen:], true, "mux envelope"},
		{"unknown flag", unknown[HeaderLen:], true, "unknown flags"},
		{"truncated stream ID", []byte{0x80}, true, "truncated stream ID"},
		{"truncated flags", []byte{0x01, 0x80}, true, "truncated flags"},
		{"empty", nil, true, "truncated stream ID"},
	}
	for _, tc := range refuse {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, _, _, err := Open(tc.payload, tc.granted); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one mentioning %q", err, tc.want)
			}
		})
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
