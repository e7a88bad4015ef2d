package pbs

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzFrameCodec exercises the length-prefixed frame codec of sync.go the
// same way internal/wire/fuzz_test.go exercises the bit codec: round-trips
// must be exact, and arbitrary garbage must produce errors, never panics
// or frames that disagree with what was written.
func FuzzFrameCodec(f *testing.F) {
	f.Add(byte(msgEstimate), []byte{})
	f.Add(byte(msgRound), []byte{1, 2, 3})
	f.Add(byte(msgDone), bytes.Repeat([]byte{0xAB}, 1024))
	f.Add(byte(0xFF), []byte{0x00})
	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		// Round-trip: what writeFrame emits, readFrame must return intact.
		var buf bytes.Buffer
		if err := writeFrame(&buf, typ, payload); err != nil {
			t.Fatalf("writeFrame: %v", err)
		}
		if buf.Len() != 5+len(payload) {
			t.Fatalf("frame of %d bytes for %d-byte payload", buf.Len(), len(payload))
		}
		gotTyp, gotPayload, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("readFrame after writeFrame: %v", err)
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

// FuzzFrameDecoderGarbage feeds raw garbage to readFrame: every outcome
// must be a clean error or a frame wholly contained in the input, and the
// maxFrame cap must hold no matter what length prefix the input claims.
func FuzzFrameDecoderGarbage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, msgDone})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x01}) // claims ~4 GiB
	big := make([]byte, 5+64)
	binary.BigEndian.PutUint32(big[:4], 64)
	big[4] = msgRound
	f.Add(big)
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(payload) > maxFrame {
			t.Fatalf("accepted %d-byte frame beyond maxFrame", len(payload))
		}
		if len(data) < 5+len(payload) {
			t.Fatal("frame larger than its input")
		}
		if typ != data[4] {
			t.Fatalf("type %d does not match header byte %d", typ, data[4])
		}
		if !bytes.Equal(payload, data[5:5+len(payload)]) {
			t.Fatal("payload does not match input bytes")
		}
		if uint32(len(payload)) != binary.BigEndian.Uint32(data[:4]) {
			t.Fatal("payload length disagrees with length prefix")
		}
	})
}

// FuzzMuxFrame exercises the version-2 mux envelope codec: whatever
// parseMuxPayload accepts must survive a semantic round trip (garbage may
// use non-canonical varints, so compare decoded fields, not bytes), its
// canonical re-encoding must be a fixed point, and the envelope must sit
// behind exactly the outer header appendFrame would give it. The encoder
// under test is the one both ends ship: muxAppendFrame, whose output past
// the 5-byte outer header is the envelope.
func FuzzMuxFrame(f *testing.F) {
	envelope := func(id, flags uint64, body []byte) []byte {
		return muxAppendFrame(nil, id, flags, msgRound, body)[5:]
	}
	f.Add(envelope(1, muxFlagOpen, []byte("hello")))
	f.Add(envelope(7, muxFlagClose, nil))
	f.Add(envelope(99, muxFlagOpen|muxFlagCompressed, bytes.Repeat([]byte{3}, 32)))
	f.Add(muxAppendFrame(nil, 5, muxFlagClose, msgStreamClose, nil)[5:])
	f.Add([]byte{0xFF}) // truncated stream-ID varint
	f.Fuzz(func(t *testing.T, data []byte) {
		id, flags, body, err := parseMuxPayload(data)
		if err != nil {
			return
		}
		enc := envelope(id, flags, body)
		id2, flags2, body2, err := parseMuxPayload(enc)
		if err != nil {
			t.Fatalf("re-parsing own encoding failed: %v", err)
		}
		if id2 != id || flags2 != flags || !bytes.Equal(body2, body) {
			t.Fatalf("envelope changed across round trip: (%d,%#x,%d bytes) -> (%d,%#x,%d bytes)",
				id, flags, len(body), id2, flags2, len(body2))
		}
		if enc2 := envelope(id2, flags2, body2); !bytes.Equal(enc, enc2) {
			t.Fatal("canonical encoding is not a fixed point")
		}
		frame := muxAppendFrame(nil, id, flags, msgRound, body)
		if want := appendFrame(nil, msgRound, enc); !bytes.Equal(frame, want) {
			t.Fatal("muxAppendFrame disagrees with appendFrame over the envelope")
		}
	})
}

// FuzzSketchCodec round-trips the ToW estimate encoding used in the first
// protocol phase and checks the decoder tolerates garbage.
func FuzzSketchCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02})
	f.Add(encodeSketches([]int64{0, -1, 1 << 40, -(1 << 40)}))
	f.Fuzz(func(t *testing.T, data []byte) {
		ys, err := decodeSketches(data)
		if err != nil {
			return
		}
		// Garbage may use non-canonical varints, so compare semantically:
		// encode what was decoded and decode it again.
		ys2, err := decodeSketches(encodeSketches(ys))
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
