package setstore

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzSegmentDecode throws arbitrary bytes at the on-disk segment parser.
// The invariants: never panic or over-allocate on hostile input; accept
// exactly what the reference decoder (binary.Uvarint per element) and the
// footer-only path accept, with the same elements; and any input that
// decodes successfully must survive an encode/decode round trip
// value-identically, with the footer-only path agreeing throughout.
func FuzzSegmentDecode(f *testing.F) {
	// Seed with well-formed segments of each shape plus interesting
	// mutations so coverage starts past the magic/CRC gate.
	full := &Segment{
		Adds: []uint64{1, 5, 9, 1 << 40},
		Meta: Meta{Full: true, Count: 4, SketchSeed: 7, Sketch: []int64{-3, 0, 12}, Digest: []byte{0xaa, 0xbb}},
	}
	delta := &Segment{
		Adds: []uint64{42},
		Dels: []uint64{7, 8},
		Meta: Meta{Count: 11, Sketch: []int64{1}, Digest: bytes.Repeat([]byte{0x5c}, 16)},
	}
	empty := &Segment{Meta: Meta{Full: true}}
	// Long enough for the decoder's inline path, with one- to ten-byte gaps.
	long := &Segment{Meta: Meta{Sketch: []int64{2}}}
	for i, x := 0, uint64(0); i < 40; i++ {
		x += 1 + uint64(i%3)<<(7*(i%10))
		long.Adds = append(long.Adds, x)
		long.Meta.Count++
	}
	for _, seg := range []*Segment{full, delta, empty, long} {
		f.Add(AppendSegment(nil, seg))
	}
	truncated := AppendSegment(nil, full)
	f.Add(truncated[:len(truncated)-3])
	f.Add([]byte(segMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		seg, err := DecodeSegment(data)
		adds, dels, refOK := referenceBody(data)
		meta, metaErr := DecodeMeta(data)
		refOK = refOK && metaErr == nil && !(meta.Full && (len(dels) > 0 || uint64(len(adds)) != meta.Count))
		if (err == nil) != refOK {
			t.Fatalf("DecodeSegment error %v, reference accepts: %v", err, refOK)
		}
		if err != nil {
			return
		}
		if !slices.Equal(seg.Adds, adds) || !slices.Equal(seg.Dels, dels) {
			t.Fatal("DecodeSegment and the reference decoder disagree on the elements")
		}
		// Round-trip: decode(encode(decode(x))) must equal decode(x) and
		// the re-encoding must be canonical.
		re := AppendSegment(nil, seg)
		seg2, err := DecodeSegment(re)
		if err != nil {
			t.Fatalf("re-encoded segment does not decode: %v", err)
		}
		if !slices.Equal(seg.Adds, seg2.Adds) || !slices.Equal(seg.Dels, seg2.Dels) {
			t.Fatal("element round-trip mismatch")
		}
		if !slices.Equal(seg.Meta.Sketch, seg2.Meta.Sketch) || !bytes.Equal(seg.Meta.Digest, seg2.Meta.Digest) {
			t.Fatal("meta round-trip mismatch")
		}
		if seg.Meta.Full != seg2.Meta.Full || seg.Meta.Count != seg2.Meta.Count || seg.Meta.SketchSeed != seg2.Meta.SketchSeed {
			t.Fatal("footer scalar round-trip mismatch")
		}
		// DecodeMeta (the footer-only path) must agree with the full parse.
		if meta.Count != seg.Meta.Count || !slices.Equal(meta.Sketch, seg.Meta.Sketch) {
			t.Fatal("DecodeMeta disagrees with DecodeSegment")
		}
	})
}
