package setstore

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand/v2"
	"testing"
)

// BenchmarkColdLoad is the hosted cold load's store half: Load of a chain
// holding a 20k-element full segment (SigBits 32) and three 8-element
// deltas, the shape a cold_hosted set has between two merges.
func BenchmarkColdLoad(b *testing.B) {
	store, err := Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	rng := rand.New(rand.NewPCG(20, 32))
	seen := make(map[uint64]bool)
	draw := func(n int) []uint64 {
		out := make([]uint64, 0, n)
		for len(out) < n {
			if x := uint64(rng.Uint32()); x != 0 && !seen[x] {
				seen[x] = true
				out = append(out, x)
			}
		}
		return out
	}
	elems := draw(20000)
	if err := store.AppendFull("s", elems, testMeta(elems)); err != nil {
		b.Fatal(err)
	}
	count := len(elems)
	for i := 0; i < 3; i++ {
		adds, dels := draw(8), []uint64(nil)
		if i == 1 {
			adds, dels = nil, elems[100:108]
		}
		count += len(adds) - len(dels)
		meta := testMeta(nil)
		meta.Count = uint64(count)
		if err := store.AppendDelta("s", adds, dels, meta); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, _, err := store.Load("s")
		if err != nil || len(got) != count {
			b.Fatalf("Load: %d elements (%v), want %d", len(got), err, count)
		}
	}
}

// TestDecodeRefusesCountBeyondBody: a segment with valid CRCs whose body
// claims 2^27 adds in a few bytes is refused before the decoder allocates
// for the claim, and so is a footer whose sketch length outruns it.
func TestDecodeRefusesCountBeyondBody(t *testing.T) {
	body := binary.AppendUvarint(nil, maxSegmentElems)
	body = append(body, 1, 2, 3, 0)
	footer := AppendSegment(nil, &Segment{Meta: Meta{Full: true}})
	footer = footer[2 : len(footer)-tailLen] // drop the empty body's two counts
	seg := sealSegment(body, footer)

	allocs := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeSegment(seg); err == nil {
				b.Fatal("a body claiming 2^27 adds in 4 bytes decoded")
			}
		}
	})
	if per := allocs.AllocedBytesPerOp(); per > 1<<20 {
		t.Fatalf("decoding a %d-byte segment allocated %d bytes", len(seg), per)
	}

	// A footer claiming 2^16 sketch lanes and carrying none.
	var f []byte
	f = binary.AppendUvarint(f, flagFull)
	f = binary.AppendUvarint(f, 0)
	f = binary.AppendUvarint(f, 0)
	f = binary.AppendUvarint(f, 1<<16)
	if _, err := DecodeMeta(sealSegment([]byte{0, 0}, f)); err == nil {
		t.Fatal("a footer claiming 2^16 sketch lanes in no bytes decoded")
	}
}

// referenceElems is the segment body decoder as first written, one
// binary.Uvarint call per element, appending rather than allocating for
// the claimed count: FuzzSegmentDecode holds the decoder to it on every
// input.
func referenceElems(b []byte, off int) ([]uint64, int, bool) {
	n, k := binary.Uvarint(b[off:])
	if k <= 0 || n > maxSegmentElems {
		return nil, 0, false
	}
	off += k
	var out []uint64
	for i := uint64(0); i < n; i++ {
		v, k := binary.Uvarint(b[off:])
		if k <= 0 {
			return nil, 0, false
		}
		off += k
		if i > 0 {
			prev := out[i-1]
			if v == 0 || prev+v < prev {
				return nil, 0, false
			}
			v += prev
		}
		out = append(out, v)
	}
	return out, off, true
}

// referenceBody decodes a whole segment body with referenceElems, or
// reports that the reference refuses it. CRCs and the footer are checked
// by the caller.
func referenceBody(data []byte) (adds, dels []uint64, ok bool) {
	if len(data) < tailLen {
		return nil, nil, false
	}
	footerLen := int(binary.LittleEndian.Uint32(data[len(data)-tailLen:]))
	if footerLen > len(data)-tailLen {
		return nil, nil, false
	}
	body := data[:len(data)-tailLen-footerLen]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[len(data)-tailLen+4:]) {
		return nil, nil, false
	}
	adds, off, ok := referenceElems(body, 0)
	if !ok {
		return nil, nil, false
	}
	dels, off, ok = referenceElems(body, off)
	if !ok || off != len(body) {
		return nil, nil, false
	}
	return adds, dels, true
}
