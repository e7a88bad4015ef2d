package frame

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzFrameCodec exercises the length-prefixed frame codec the same way
// internal/wire/fuzz_test.go exercises the bit codec: round-trips must be
// exact, and arbitrary garbage must produce errors, never panics or frames
// that disagree with what was written.
func FuzzFrameCodec(f *testing.F) {
	f.Add(byte(1), []byte{}) // a retired type still round-trips
	f.Add(byte(MsgRound), []byte{1, 2, 3})
	f.Add(byte(MsgDone), bytes.Repeat([]byte{0xAB}, 1024))
	f.Add(byte(0xFF), []byte{0x00})
	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		var buf bytes.Buffer
		n, err := WriteAll(&buf, []Frame{{Type: typ, Payload: payload}})
		if err != nil {
			t.Fatalf("WriteAll: %v", err)
		}
		if n != HeaderLen+len(payload) || buf.Len() != n {
			t.Fatalf("frame of %d bytes (reported %d) for %d-byte payload", buf.Len(), n, len(payload))
		}
		if !bytes.Equal(buf.Bytes(), Append(nil, typ, payload)) {
			t.Fatal("WriteAll and Append disagree")
		}
		gotTyp, gotPayload, err := ReadInto(&buf, MaxFrame, nil)
		if err != nil {
			t.Fatalf("ReadInto after WriteAll: %v", err)
		}
		if gotTyp != typ || !bytes.Equal(gotPayload, payload) {
			t.Fatalf("roundtrip mismatch: typ %d/%d, payload %d/%d bytes",
				gotTyp, typ, len(gotPayload), len(payload))
		}
		if buf.Len() != 0 {
			t.Fatalf("%d trailing bytes after frame", buf.Len())
		}
	})
}

// FuzzFrameDecoderGarbage feeds raw garbage to ReadInto: every outcome must
// be a clean error or a frame wholly contained in the input, and the
// MaxFrame cap must hold no matter what length prefix the input claims.
func FuzzFrameDecoderGarbage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, MsgDone})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x01}) // claims ~4 GiB
	big := make([]byte, HeaderLen+64)
	binary.BigEndian.PutUint32(big[:4], 64)
	big[4] = MsgRound
	f.Add(big)
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadInto(bytes.NewReader(data), MaxFrame, nil)
		if err != nil {
			return
		}
		if len(payload) > MaxFrame {
			t.Fatalf("accepted %d-byte frame beyond MaxFrame", len(payload))
		}
		if len(data) < HeaderLen+len(payload) {
			t.Fatal("frame larger than its input")
		}
		n, hdrTyp := ParseHeader(data)
		if typ != hdrTyp || typ != data[4] {
			t.Fatalf("type %d does not match header byte %d", typ, data[4])
		}
		if !bytes.Equal(payload, data[HeaderLen:HeaderLen+len(payload)]) {
			t.Fatal("payload does not match input bytes")
		}
		if uint32(len(payload)) != n || n != binary.BigEndian.Uint32(data[:4]) {
			t.Fatal("payload length disagrees with length prefix")
		}
	})
}

// FuzzMuxFrame exercises the version-2 mux envelope: any flag outside
// Open|Close is rejected, and whatever Open accepts must survive a semantic
// round trip through Seal — garbage may use non-canonical varints, so
// compare decoded fields, not bytes — the canonical re-encoding must be a
// fixed point, and the envelope must sit behind exactly the outer header
// Append would give it.
func FuzzMuxFrame(f *testing.F) {
	seal := func(id, flags uint64, body []byte) []byte {
		return Seal(nil, id, flags, MsgRound, body)[HeaderLen:]
	}
	f.Add(seal(1, FlagOpen, []byte("hello")))
	f.Add(seal(7, FlagClose, nil))
	f.Add(seal(99, FlagOpen|1<<2, bytes.Repeat([]byte{3}, 32))) // retired compression flag
	f.Add(seal(5, 1<<7, nil))                                   // unknown flag
	f.Add([]byte{0xFF})                                         // truncated stream-ID varint
	f.Add(seal(5, FlagClose, nil))                              // a bare stream close
	f.Add(seal(3, FlagOpen|FlagClose, []byte("whole stream")))  // a one-frame stream
	f.Fuzz(func(t *testing.T, data []byte) {
		id, flags, body, err := Open(data)
		if err != nil {
			return
		}
		if flags&^uint64(FlagOpen|FlagClose) != 0 {
			t.Fatalf("accepted flags %#x outside Open|Close", flags)
		}
		enc := seal(id, flags, body)
		id2, flags2, body2, err := Open(enc)
		if err != nil {
			t.Fatalf("re-opening own encoding failed: %v", err)
		}
		if id2 != id || flags2 != flags || !bytes.Equal(body2, body) {
			t.Fatalf("envelope changed across round trip: (%d,%#x,%d bytes) -> (%d,%#x,%d bytes)",
				id, flags, len(body), id2, flags2, len(body2))
		}
		if enc2 := seal(id2, flags2, body2); !bytes.Equal(enc, enc2) {
			t.Fatal("canonical encoding is not a fixed point")
		}
		if frame, want := Seal(nil, id, flags, MsgRound, body), Append(nil, MsgRound, enc); !bytes.Equal(frame, want) {
			t.Fatal("Seal disagrees with Append over the envelope")
		}
	})
}

// FuzzSketchCodec round-trips the ToW estimate encoding used in the first
// protocol phase and checks the decoder tolerates garbage.
func FuzzSketchCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02})
	f.Add(EncodeSketches([]int64{0, -1, 1 << 40, -(1 << 40)}))
	f.Fuzz(func(t *testing.T, data []byte) {
		ys, err := DecodeSketches(data)
		if err != nil {
			return
		}
		// Garbage may use non-canonical varints, so compare semantically:
		// encode what was decoded and decode it again.
		ys2, err := DecodeSketches(EncodeSketches(ys))
		if err != nil {
			t.Fatalf("re-decoding own encoding failed: %v", err)
		}
		if len(ys) != len(ys2) {
			t.Fatalf("sketch count changed: %d -> %d", len(ys), len(ys2))
		}
		for i := range ys {
			if ys[i] != ys2[i] {
				t.Fatalf("sketch %d changed: %d -> %d", i, ys[i], ys2[i])
			}
		}
	})
}

// FuzzErrorPayload fuzzes the structured MsgError suffix parser with
// hostile input: whatever arrives, the message is a prefix of the input,
// the code is valid or empty, the retry-after is clamped, and a parsed
// suffix re-encodes into one the parser reads back identically. (The root
// package's TestSanitizeErrMsg covers the sanitising above this.)
func FuzzErrorPayload(f *testing.F) {
	f.Add("server at session capacity [pbs:e=busy,ra=250ms]")
	f.Add("server over session watermark, retry later [pbs:e=busy]")
	f.Add("plain legacy diagnostic")
	f.Add("bad [pbs:e=busy,ra=-5s]")
	f.Add("bad [pbs:e=BUSY,ra=1s]")
	f.Add("clamp [pbs:e=busy,ra=10000h]")
	f.Add("nested [pbs:e=busy] tail [pbs:e=rejected,ra=1ms]")
	f.Add("\x00\x07\xff\xfe")
	f.Add("unknown set \"x\" [pbs:e=rejected]")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		msg, code, ra := SplitErrCode(s)
		if code == "" {
			if msg != s || ra != 0 {
				t.Fatalf("no code, yet %q -> %q / %v", s, msg, ra)
			}
			return
		}
		if !validErrCode(code) || len(msg) >= len(s) || s[:len(msg)] != msg {
			t.Fatalf("%q -> msg %q code %q", s, msg, code)
		}
		if ra < 0 || ra > MaxRetryAfter {
			t.Fatalf("retry-after %v outside [0, %v]", ra, MaxRetryAfter)
		}
		msg2, code2, ra2 := SplitErrCode(AppendErrCode(msg, code, ra))
		if msg2 != msg || code2 != code || ra2 != ra {
			t.Fatalf("re-encode mismatch: %q/%q/%v -> %q/%q/%v", msg, code, ra, msg2, code2, ra2)
		}
	})
}

// FuzzHello fuzzes the parser of the first attacker-controlled frame of
// every fast session: whatever ParseHello accepts respects the field caps,
// and its canonical re-encoding parses back to the same hello and is a
// fixed point.
func FuzzHello(f *testing.F) {
	f.Add(AppendHello(nil, Hello{Version: Version1, SpecD: 128, Sketches: EncodeSketches([]int64{1, -2, 3}), Round1: []byte{9, 9}}))
	f.Add(AppendHello(nil, Hello{Version: VersionMux, WantDigest: true, WantAdaptive: true,
		Features: FeatureMux | FeatureLZ, Name: "tenant/set", SpecD: 1}))
	f.Add(AppendHello(nil, Hello{Version: 99}))
	f.Add(AppendHello(nil, Hello{Version: Version1, Name: string(make([]byte, maxNameLen+1))}))
	f.Add([]byte{0x01, 0x00, 0x05, 'a'}) // name longer than the frame
	f.Add([]byte{0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ParseHello(data)
		if err != nil {
			return
		}
		if len(h.Name) > maxNameLen {
			t.Fatalf("accepted a %d-byte set name", len(h.Name))
		}
		if h.Features&^featureMask != 0 {
			t.Fatalf("feature bits %#x outside the bitmap", h.Features)
		}
		if len(h.Sketches)+len(h.Round1) > len(data) {
			t.Fatal("fields larger than their input")
		}
		enc := AppendHello(nil, h)
		h2, err := ParseHello(enc)
		if err != nil {
			t.Fatalf("re-parsing own encoding failed: %v", err)
		}
		if h2.Version != h.Version || h2.WantDigest != h.WantDigest || h2.WantAdaptive != h.WantAdaptive ||
			h2.Features != h.Features || h2.Name != h.Name || h2.SpecD != h.SpecD ||
			!bytes.Equal(h2.Sketches, h.Sketches) || !bytes.Equal(h2.Round1, h.Round1) {
			t.Fatalf("hello changed across round trip: %+v -> %+v", h, h2)
		}
		if enc2 := AppendHello(nil, h2); !bytes.Equal(enc, enc2) {
			t.Fatal("canonical encoding is not a fixed point")
		}
	})
}

// FuzzHelloReply is FuzzHello for the initiator's side of the exchange,
// plus the reply's own rules: the digest is capped, and a declined reply
// carries nothing after its fixed fields.
func FuzzHelloReply(f *testing.F) {
	f.Add(AppendHelloReply(nil, HelloReply{Version: Version1, Answered: true, Dhat: 20, RoundReply: []byte{1, 2, 3}}))
	f.Add(AppendHelloReply(nil, HelloReply{Version: VersionMux, Adaptive: true, Features: FeatureMux | FeatureLZ,
		Dhat: 5000, Digest: make([]byte, 32)}))
	f.Add(AppendHelloReply(nil, HelloReply{Version: Version1, Dhat: 1, Digest: make([]byte, maxDigestLen+1)}))
	f.Add(append(AppendHelloReply(nil, HelloReply{Version: Version1, Dhat: 1}), 0xAA)) // declined, yet trailing
	f.Add([]byte{0x01, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ParseHelloReply(data)
		if err != nil {
			return
		}
		if len(r.Digest) > maxDigestLen {
			t.Fatalf("accepted a %d-byte digest", len(r.Digest))
		}
		if r.Features&^featureMask != 0 {
			t.Fatalf("feature bits %#x outside the bitmap", r.Features)
		}
		if !r.Answered && r.RoundReply != nil {
			t.Fatal("declined reply carries a round reply")
		}
		enc := AppendHelloReply(nil, r)
		if !r.Answered {
			// Nothing may trail a declined reply: the canonical encoding ends
			// exactly where the fixed fields do, and one more byte is refused.
			if _, err := ParseHelloReply(append(bytes.Clone(enc), 0)); err == nil {
				t.Fatal("trailing byte after a declined reply accepted")
			}
		}
		r2, err := ParseHelloReply(enc)
		if err != nil {
			t.Fatalf("re-parsing own encoding failed: %v", err)
		}
		if r2.Version != r.Version || r2.Answered != r.Answered || r2.Adaptive != r.Adaptive ||
			r2.Features != r.Features || r2.Dhat != r.Dhat || (r2.Digest == nil) != (r.Digest == nil) ||
			!bytes.Equal(r2.Digest, r.Digest) || !bytes.Equal(r2.RoundReply, r.RoundReply) {
			t.Fatalf("reply changed across round trip: %+v -> %+v", r, r2)
		}
		if enc2 := AppendHelloReply(nil, r2); !bytes.Equal(enc, enc2) {
			t.Fatal("canonical encoding is not a fixed point")
		}
	})
}
