package wire

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadRoundtrip(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0x5, 3)
	w.WriteBits(0xABCD, 16)
	w.WriteBool(true)
	w.WriteBits(1, 1)
	w.WriteUvarint(300)
	w.WriteBits(0xFFFFFFFFFFFFFFFF, 64)
	if w.Len() != 3+16+1+1+(3*5)+64 { // 300 needs 9 value bits -> 3 varint groups
		t.Fatalf("bit length = %d", w.Len())
	}

	r := NewReader(w.Bytes())
	if v, _ := r.ReadBits(3); v != 0x5 {
		t.Fatalf("got %x", v)
	}
	if v, _ := r.ReadBits(16); v != 0xABCD {
		t.Fatalf("got %x", v)
	}
	if b, _ := r.ReadBool(); !b {
		t.Fatal("bool mismatch")
	}
	if v, _ := r.ReadBits(1); v != 1 {
		t.Fatal("bit mismatch")
	}
	if v, _ := r.ReadUvarint(); v != 300 {
		t.Fatalf("uvarint = %d", v)
	}
	if v, _ := r.ReadBits(64); v != 0xFFFFFFFFFFFFFFFF {
		t.Fatalf("got %x", v)
	}
}

func TestRandomizedStream(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	type item struct {
		v uint64
		n uint
	}
	var items []item
	w := NewWriter()
	for i := 0; i < 5000; i++ {
		n := uint(rng.Intn(64) + 1)
		v := rng.Uint64()
		if n < 64 {
			v &= (1 << n) - 1
		}
		items = append(items, item{v, n})
		w.WriteBits(v, n)
	}
	r := NewReader(w.Bytes())
	for i, it := range items {
		got, err := r.ReadBits(it.n)
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		if got != it.v {
			t.Fatalf("item %d: got %x want %x (width %d)", i, got, it.v, it.n)
		}
	}
}

func TestUvarintQuick(t *testing.T) {
	prop := func(v uint64) bool {
		w := NewWriter()
		w.WriteUvarint(v)
		r := NewReader(w.Bytes())
		got, err := r.ReadUvarint()
		return err == nil && got == v
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestShortBuffer(t *testing.T) {
	r := NewReader([]byte{0xFF})
	if _, err := r.ReadBits(9); err != ErrShortBuffer {
		t.Fatalf("want ErrShortBuffer, got %v", err)
	}
	if _, err := r.ReadBits(8); err != nil {
		t.Fatalf("8 bits should be available: %v", err)
	}
	if _, err := r.ReadBits(1); err != ErrShortBuffer {
		t.Fatal("stream should be exhausted")
	}
}

func TestRemaining(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0, 13)
	r := NewReader(w.Bytes())
	if r.Remaining() != 16 { // padded to 2 bytes
		t.Fatalf("remaining = %d", r.Remaining())
	}
	r.ReadBits(10)
	if r.Remaining() != 6 {
		t.Fatalf("remaining = %d", r.Remaining())
	}
}

func TestWidthValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("WriteBits(., 0) should panic")
		}
	}()
	NewWriter().WriteBits(1, 0)
}

// benchWidths are the two widths a PBS round is made of: a syndrome or a
// position over GF(2^8), and a 32-bit XOR sum or checksum.
var benchWidths = []uint{8, 32}

// BenchmarkWriteBits writes a round-sized message of equal-width values,
// starting unaligned as a message does after its header.
func BenchmarkWriteBits(b *testing.B) {
	const values = 16384
	for _, width := range benchWidths {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			b.SetBytes(int64(values * width / 8))
			b.ReportAllocs()
			for b.Loop() {
				w := NewWriterSize(5 + values*int(width))
				w.WriteUvarint(7)
				for i := uint64(0); i < values; i++ {
					w.WriteBits(i*0x9E3779B97F4A7C15, width)
				}
			}
		})
	}
}

// BenchmarkReadBits reads the same message back.
func BenchmarkReadBits(b *testing.B) {
	const values = 16384
	for _, width := range benchWidths {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			w := NewWriter()
			w.WriteUvarint(7)
			for i := uint64(0); i < values; i++ {
				w.WriteBits(i*0x9E3779B97F4A7C15, width)
			}
			b.SetBytes(int64(values * width / 8))
			var sink uint64
			for b.Loop() {
				r := NewReader(w.Bytes())
				r.ReadUvarint()
				for i := 0; i < values; i++ {
					v, _ := r.ReadBits(width)
					sink ^= v
				}
			}
			_ = sink
		})
	}
}

// TestUvarintOverflow feeds ReadUvarint seventeen groups: sixteen fill a
// uint64, so the seventeenth must be an error, not a group shifted out.
func TestUvarintOverflow(t *testing.T) {
	if v, err := NewReader(overlongUvarint()).ReadUvarint(); err == nil {
		t.Fatalf("17-group uvarint decoded to %#x, want an error", v)
	}
	w := NewWriter()
	w.WriteUvarint(^uint64(0))
	if w.Len() != 16*5 {
		t.Fatalf("max uvarint takes %d bits, want 80", w.Len())
	}
	if v, err := NewReader(w.Bytes()).ReadUvarint(); err != nil || v != ^uint64(0) {
		t.Fatalf("16-group uvarint = %#x, %v", v, err)
	}
}

// overlongUvarint is sixteen continued groups of 0xF and a final 0x7.
func overlongUvarint() []byte {
	w := NewWriter()
	for i := 0; i < 16; i++ {
		w.WriteBits(0x1F, 5)
	}
	w.WriteBits(0x07, 5)
	return w.Bytes()
}

// refWriter and refReader are the codec as first written, one bit per loop
// iteration: slow, and obviously the MSB-first layout. The word-at-a-time
// codec must agree with them on every byte.
type refWriter struct {
	buf  []byte
	nbit int
}

func (w *refWriter) WriteBits(v uint64, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		if w.nbit%8 == 0 {
			w.buf = append(w.buf, 0)
		}
		if v&(1<<uint(i)) != 0 {
			w.buf[w.nbit/8] |= 0x80 >> uint(w.nbit%8)
		}
		w.nbit++
	}
}

func (w *refWriter) WriteUvarint(v uint64) {
	for {
		group := v & 0xF
		v >>= 4
		if v != 0 {
			w.WriteBits(1, 1)
			w.WriteBits(group, 4)
		} else {
			w.WriteBits(0, 1)
			w.WriteBits(group, 4)
			return
		}
	}
}

type refReader struct {
	buf []byte
	pos int
}

func (r *refReader) ReadBits(n uint) (uint64, error) {
	if r.pos+int(n) > 8*len(r.buf) {
		return 0, ErrShortBuffer
	}
	var v uint64
	for i := uint(0); i < n; i++ {
		v <<= 1
		if r.buf[r.pos/8]&(0x80>>uint(r.pos%8)) != 0 {
			v |= 1
		}
		r.pos++
	}
	return v, nil
}

func (r *refReader) ReadUvarint() (uint64, error) {
	var v uint64
	for shift := uint(0); ; shift += 4 {
		cont, err := r.ReadBits(1)
		if err != nil {
			return 0, err
		}
		group, err := r.ReadBits(4)
		if err != nil {
			return 0, err
		}
		v |= group << shift
		if cont == 0 {
			return v, nil
		}
	}
}

// codecOp is one operation of a differential stream: kind 0 writes the low
// n bits of v (which carries garbage above them), 1 a bool, 2 a uvarint.
type codecOp struct {
	kind int
	v    uint64
	n    uint
}

func randomOps(rng *rand.Rand, count int) []codecOp {
	ops := make([]codecOp, count)
	for i := range ops {
		op := codecOp{kind: rng.Intn(4) % 3, v: rng.Uint64(), n: uint(rng.Intn(64) + 1)}
		if op.kind == 2 {
			op.v >>= uint(rng.Intn(64)) // every group count, not just the longest
		}
		ops[i] = op
	}
	return ops
}

func (op codecOp) want() uint64 {
	switch op.kind {
	case 0:
		return op.v & (^uint64(0) >> (64 - op.n))
	case 1:
		return op.v & 1
	}
	return op.v
}

func (op codecOp) bits() int {
	if op.kind == 0 {
		return int(op.n)
	}
	return 5 * 16 // a bool, or a uvarint at its longest
}

// TestCodecMatchesBitAtATimeReference drives the codec and the reference
// with 10⁵ seeded operations, over every start alignment, through both the
// sized writer and the one that grows under its stores: identical
// bytes and lengths out, identical values back, and on truncated input the
// same failing operation with nothing consumed by it.
func TestCodecMatchesBitAtATimeReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for stream := 0; stream < 16; stream++ {
		ops := randomOps(rng, 100000/16)
		align, sized := stream%8, stream >= 8
		total := align
		for _, op := range ops {
			total += op.bits()
		}
		w, ref := NewWriter(), &refWriter{}
		if sized {
			w = NewWriterSize(total)
		}
		for i := 0; i < align; i++ {
			w.WriteBool(true)
			ref.WriteBits(1, 1)
		}
		for i, op := range ops {
			switch op.kind {
			case 0:
				w.WriteBits(op.v, op.n)
				ref.WriteBits(op.v, op.n)
			case 1:
				w.WriteBool(op.v&1 == 1)
				ref.WriteBits(op.v&1, 1)
			case 2:
				w.WriteUvarint(op.v)
				ref.WriteUvarint(op.v)
			}
			if w.Len() != ref.nbit {
				t.Fatalf("stream %d op %d (%+v): Len %d, reference %d", stream, i, op, w.Len(), ref.nbit)
			}
		}
		if string(w.Bytes()) != string(ref.buf) {
			t.Fatalf("stream %d: bytes differ from the reference", stream)
		}
		// Read it all back, then again from streams cut short.
		cuts := []int{len(ref.buf), 0, 1, 7, 8, 9, len(ref.buf) - 1, len(ref.buf) - 8, rng.Intn(len(ref.buf)), rng.Intn(len(ref.buf))}
		for _, cut := range cuts {
			r, rr := NewReader(ref.buf[:cut]), &refReader{buf: ref.buf[:cut]}
			if align > 0 { // on a cut too short for it neither reader moves
				r.ReadBits(uint(align))
				rr.ReadBits(uint(align))
			}
			failed := false
			for i, op := range ops {
				before := r.Remaining()
				var got, refGot uint64
				var err, refErr error
				switch op.kind {
				case 0:
					got, err = r.ReadBits(op.n)
					refGot, refErr = rr.ReadBits(op.n)
				case 1:
					var b bool
					b, err = r.ReadBool()
					if b {
						got = 1
					}
					refGot, refErr = rr.ReadBits(1)
				case 2:
					got, err = r.ReadUvarint()
					refGot, refErr = rr.ReadUvarint()
				}
				if err != refErr {
					t.Fatalf("stream %d cut %d op %d (%+v): error %v, reference %v", stream, cut, i, op, err, refErr)
				}
				if err != nil {
					if err != ErrShortBuffer {
						t.Fatalf("stream %d cut %d op %d: error %v, want ErrShortBuffer", stream, cut, i, err)
					}
					if op.kind != 2 && r.Remaining() != before {
						t.Fatalf("stream %d cut %d op %d (%+v): a failed read consumed %d bits", stream, cut, i, op, before-r.Remaining())
					}
					failed = true
					break
				}
				if got != refGot || got != op.want() {
					t.Fatalf("stream %d cut %d op %d (%+v): read %#x, reference %#x, want %#x", stream, cut, i, op, got, refGot, op.want())
				}
			}
			if failed != (cut < len(ref.buf)) {
				t.Fatalf("stream %d cut %d of %d: failed = %v", stream, cut, len(ref.buf), failed)
			}
		}
	}
}
