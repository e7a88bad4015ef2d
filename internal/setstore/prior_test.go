package setstore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"slices"
	"testing"
)

// withLegacyPrior rewrites an encoded segment the way a build that still
// persisted the learned d̂ prior wrote it: flagPrior set and the three prior
// fields after the digest, footer length and CRC recomputed. No encoder
// produces these bytes any more, so the tests assemble them by hand.
func withLegacyPrior(t *testing.T, raw []byte, mean, vr float64, count uint64) []byte {
	t.Helper()
	body, footer, err := splitSegment(raw, true)
	if err != nil {
		t.Fatalf("splitSegment: %v", err)
	}
	flags, n := binary.Uvarint(footer)
	if n <= 0 {
		t.Fatal("footer flags do not parse")
	}
	legacy := binary.AppendUvarint(nil, flags|flagPrior)
	legacy = append(legacy, footer[n:]...)
	legacy = binary.AppendUvarint(legacy, math.Float64bits(mean))
	legacy = binary.AppendUvarint(legacy, math.Float64bits(vr))
	legacy = binary.AppendUvarint(legacy, count)
	return sealSegment(body, legacy)
}

// sealSegment appends the tail (footer length, both CRCs, magic) to a body
// and footer, as AppendSegment does for the footers it can encode.
func sealSegment(body, footer []byte) []byte {
	var tail [tailLen]byte
	binary.LittleEndian.PutUint32(tail[0:], uint32(len(footer)))
	binary.LittleEndian.PutUint32(tail[4:], crc32.Checksum(body, castagnoli))
	binary.LittleEndian.PutUint32(tail[8:], crc32.Checksum(footer, castagnoli))
	copy(tail[12:], segMagic)
	return slices.Concat(body, footer, tail[:])
}

// TestSegmentLegacyPriorFooter: a footer written by a build that persisted
// the prior still decodes, on both paths, to the metadata around it; the
// prior itself is dropped, so re-encoding yields the prior-free bytes.
func TestSegmentLegacyPriorFooter(t *testing.T) {
	seg := &Segment{
		Adds: []uint64{3, 7, 9},
		Meta: Meta{Full: true, Count: 3, SketchSeed: 11, Sketch: []int64{1, -2, 3}, Digest: []byte{0xaa, 0xbb}},
	}
	plain := AppendSegment(nil, seg)
	legacy := withLegacyPrior(t, plain, 412.5, 1000.25, 17)
	if bytes.Equal(plain, legacy) {
		t.Fatal("hand-encoded prior left the segment unchanged")
	}

	meta, err := DecodeMeta(legacy)
	if err != nil {
		t.Fatalf("DecodeMeta: %v", err)
	}
	dec, err := DecodeSegment(legacy)
	if err != nil {
		t.Fatalf("DecodeSegment: %v", err)
	}
	for _, m := range []Meta{meta, dec.Meta} {
		if !m.Full || m.Count != 3 || m.SketchSeed != 11 ||
			!slices.Equal(m.Sketch, seg.Meta.Sketch) || !bytes.Equal(m.Digest, seg.Meta.Digest) {
			t.Fatalf("metadata around the legacy prior did not decode: %+v", m)
		}
	}
	if !slices.Equal(dec.Adds, seg.Adds) || len(dec.Dels) != 0 {
		t.Fatalf("elements did not decode: %+v", dec)
	}
	if re := AppendSegment(nil, dec); !bytes.Equal(re, plain) {
		t.Fatal("re-encoding a legacy segment did not drop the prior")
	}
}

// A segment is written without the legacy prior flag or its fields.
func TestSegmentNoPriorBackwardCompat(t *testing.T) {
	seg := &Segment{
		Adds: []uint64{1, 2},
		Meta: Meta{Full: true, Count: 2, SketchSeed: 5, Sketch: []int64{0}, Digest: []byte{1}},
	}
	raw := AppendSegment(nil, seg)

	_, footer, err := splitSegment(raw, true)
	if err != nil {
		t.Fatalf("splitSegment: %v", err)
	}
	if footer[0]&flagPrior != 0 {
		t.Fatalf("flagPrior set on a written segment (flags=%#x)", footer[0])
	}
	if _, err := DecodeMeta(raw); err != nil {
		t.Fatalf("DecodeMeta: %v", err)
	}
}

// The prior's fields are validated before they are dropped, so a footer
// the prior-keeping reader rejected is still rejected — by both decoders.
func TestSegmentPriorRejectsInvalid(t *testing.T) {
	cases := []struct {
		name     string
		mean, vr float64
		count    uint64
	}{
		{"nan mean", math.NaN(), 1, 1},
		{"inf var", 1, math.Inf(1), 1},
		{"negative mean", -3, 1, 1},
		{"zero count", 1, 1, 0},
	}
	plain := AppendSegment(nil, &Segment{Adds: []uint64{1}, Meta: Meta{Count: 1}})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := withLegacyPrior(t, plain, tc.mean, tc.vr, tc.count)
			if _, err := DecodeMeta(raw); err == nil {
				t.Fatalf("DecodeMeta accepted %s", tc.name)
			}
			if _, err := DecodeSegment(raw); err == nil {
				t.Fatalf("DecodeSegment accepted %s", tc.name)
			}
		})
	}
	// A truncated prior (flag set, fields missing) is rejected too.
	body, footer, _ := splitSegment(withLegacyPrior(t, plain, 1, 1, 1), true)
	if _, err := DecodeMeta(sealSegment(body, footer[:len(footer)-1])); err == nil {
		t.Fatal("DecodeMeta accepted a truncated prior")
	}
}
