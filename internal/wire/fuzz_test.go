package wire

import "testing"

// FuzzReader exercises the bit reader against arbitrary byte streams: it
// must never panic and must respect its declared lengths.
func FuzzReader(f *testing.F) {
	f.Add([]byte{0x00}, uint8(1))
	f.Add([]byte{0xFF, 0x12, 0x34}, uint8(13))
	f.Add([]byte{}, uint8(64))
	f.Add(overlongUvarint(), uint8(5)) // 17 groups: an error, not a wrapped value
	f.Fuzz(func(t *testing.T, data []byte, widthSeed uint8) {
		r := NewReader(data)
		width := uint(widthSeed%64) + 1
		total := 0
		for {
			v, err := r.ReadBits(width)
			if err != nil {
				break
			}
			if width < 64 && v >= 1<<width {
				t.Fatalf("ReadBits(%d) returned %d bits of value %x", width, width, v)
			}
			total += int(width)
			if total > 8*len(data) {
				t.Fatal("read more bits than the buffer holds")
			}
		}
		// Varint reads must also terminate cleanly.
		r2 := NewReader(data)
		for {
			if _, err := r2.ReadUvarint(); err != nil {
				break
			}
		}
	})
}

// FuzzRoundtrip writes the fuzzed values and checks exact recovery. The
// lead value puts the one under test at any bit offset and behind any
// amount of buffer, and v goes in unmasked: WriteBits keeps its low bits.
func FuzzRoundtrip(f *testing.F) {
	f.Add(uint64(0), uint8(1), uint64(300), uint64(0), uint8(0))
	f.Add(^uint64(0), uint8(64), uint64(0), uint64(5), uint8(3))
	f.Add(uint64(0xABCDEF), uint8(12), ^uint64(0), ^uint64(0), uint8(63))
	f.Fuzz(func(t *testing.T, v uint64, widthSeed uint8, uv uint64, lead uint64, leadSeed uint8) {
		width, leadWidth := uint(widthSeed%64)+1, uint(leadSeed%64)+1
		want, wantLead := v&(^uint64(0)>>(64-width)), lead&(^uint64(0)>>(64-leadWidth))
		for _, w := range []*Writer{NewWriter(), NewWriterSize(256)} {
			w.WriteBits(lead, leadWidth)
			w.WriteBits(v, width)
			w.WriteUvarint(uv)
			w.WriteBool(v&1 == 1)
			r := NewReader(w.Bytes())
			if got, err := r.ReadBits(leadWidth); err != nil || got != wantLead {
				t.Fatalf("lead roundtrip: %x/%v want %x", got, err, wantLead)
			}
			got, err := r.ReadBits(width)
			if err != nil || got != want {
				t.Fatalf("bits roundtrip: %x/%v want %x", got, err, want)
			}
			gu, err := r.ReadUvarint()
			if err != nil || gu != uv {
				t.Fatalf("uvarint roundtrip: %d/%v want %d", gu, err, uv)
			}
			gb, err := r.ReadBool()
			if err != nil || gb != (v&1 == 1) {
				t.Fatalf("bool roundtrip")
			}
		}
	})
}
