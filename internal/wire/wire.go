// Package wire provides bit-granular serialization used by the
// reconciliation protocols for faithful communication accounting.
//
// The paper reports communication overhead in bits (e.g. Formula (1):
// t·log n + δ·log n + δ·log|U| + log|U| per group pair), so the protocol
// messages here are bit-packed rather than byte-aligned: a BCH syndrome over
// GF(2^11) costs exactly 11 bits on the wire. Bit-packed is the layout, not
// the loop: a value of any width goes in or out with one 64-bit store or
// load at its byte offset.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Writer accumulates a bit stream, most-significant-bit first within each
// appended value.
type Writer struct {
	buf  []byte
	nbit int
}

// NewWriter returns an empty Writer.
func NewWriter() *Writer { return &Writer{} }

// NewWriterSize returns an empty Writer with room for bits bits (and the
// width of WriteBits' last store), for a caller that knows its message size
// up front.
func NewWriterSize(bits int) *Writer {
	return &Writer{buf: make([]byte, 0, (bits+7)/8+8)}
}

// WriteBits appends the low n bits of v (1 <= n <= 64) with one 64-bit
// store over the last partial byte and the seven after it. Bytes past the
// end of the stream are zero before the store and after it.
func (w *Writer) WriteBits(v uint64, n uint) {
	if n == 0 || n > 64 {
		panic(fmt.Sprintf("wire: WriteBits width %d out of range", n))
	}
	i, off := w.nbit>>3, uint(w.nbit&7)
	if off+n > 64 {
		// Nine bytes: the high half goes first.
		w.WriteBits(v>>32, n-32)
		w.WriteBits(v, 32)
		return
	}
	if i+8 > cap(w.buf) {
		w.buf = slices.Grow(w.buf, 8)
	}
	buf := w.buf[:i+8]
	word := v << (64 - n) >> off // the low n bits, off bits into the word
	if off > 0 {
		word |= uint64(buf[i]) << 56
	}
	binary.BigEndian.PutUint64(buf[i:], word)
	w.nbit += int(n)
	w.buf = buf[:(w.nbit+7)>>3]
}

// WriteBool appends a single bit.
func (w *Writer) WriteBool(b bool) {
	v := uint64(0)
	if b {
		v = 1
	}
	w.WriteBits(v, 1)
}

// WriteUvarint appends v using a 4-bit-group variable-length encoding:
// each group of 4 value bits is preceded by a continuation bit. Small
// counts (the common case for protocol headers) cost 5 bits.
func (w *Writer) WriteUvarint(v uint64) {
	for ; v > 0xF; v >>= 4 {
		w.WriteBits(0x10|v&0xF, 5)
	}
	w.WriteBits(v, 5)
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.nbit }

// Bytes returns the accumulated bit stream padded to a whole number of
// bytes. The returned slice aliases the writer's buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// ErrShortBuffer is returned when a read runs past the end of the stream.
var ErrShortBuffer = errors.New("wire: read past end of buffer")

// Reader consumes a bit stream produced by Writer.
type Reader struct {
	buf []byte
	pos int // bit position
}

// NewReader returns a Reader over buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// ReadBits reads n bits (1 <= n <= 64) and returns them as the low bits of
// the result. A read past the end fails without consuming anything.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n == 0 || n > 64 {
		return 0, fmt.Errorf("wire: ReadBits width %d out of range", n)
	}
	if r.pos+int(n) > 8*len(r.buf) {
		return 0, ErrShortBuffer
	}
	i, off := r.pos>>3, uint(r.pos&7)
	r.pos += int(n)
	src := r.buf[i:]
	if len(src) < 8 {
		var tail [8]byte
		copy(tail[:], src)
		src = tail[:]
	}
	v := binary.BigEndian.Uint64(src) << off >> (64 - n)
	if rest := off + n; rest > 64 {
		v |= uint64(r.buf[i+8]) >> (72 - rest) // the ninth byte's share
	}
	return v, nil
}

// ReadBool reads a single bit.
func (r *Reader) ReadBool() (bool, error) {
	v, err := r.ReadBits(1)
	return v == 1, err
}

// ReadUvarint reads a value written by WriteUvarint. Sixteen groups fill a
// uint64; a seventeenth is rejected, not shifted out.
func (r *Reader) ReadUvarint() (uint64, error) {
	var v uint64
	for shift := uint(0); ; shift += 4 {
		if shift >= 64 {
			return 0, errors.New("wire: uvarint overflows uint64")
		}
		g, err := r.ReadBits(5)
		if err != nil {
			return 0, err
		}
		v |= g & 0xF << shift
		if g&0x10 == 0 {
			return v, nil
		}
	}
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return 8*len(r.buf) - r.pos }
