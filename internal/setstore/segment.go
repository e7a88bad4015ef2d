// Package setstore is the persistent layer behind the Server's hosted
// sets: an LSM-flavoured store of sorted immutable segment files, one
// chain per set, in the spirit of VictoriaMetrics lib/mergeset (immutable
// parts, an in-memory head owned by the caller). The caller holds the whole
// set in its head, so its own full append compacts a chain (Store.FullDue
// says when).
//
// Each segment carries the set's delta since the previous segment (or the
// full element list, for full segments) in the body, and — crucially — a
// footer with the *cumulative* reconciliation metadata as of that segment:
// element count, ToW sketch vector, and msethash digest. The footer is
// readable without touching the body, so an evicted set can answer a
// difference estimate from a single small tail read, paging the elements
// in only when a real delta must be decoded.
//
// On-disk layout (all integers varint unless noted):
//
//	body:   uvarint(#adds)  adds as delta varints (sorted, strictly increasing)
//	        uvarint(#dels)  dels as delta varints
//	footer: uvarint(flags)  bit0 = full rewrite (body adds are the whole set)
//	                        bit1 = three legacy fields follow the digest
//	        uvarint(count)  cumulative set size after applying this segment
//	        uvarint(sketch seed)
//	        uvarint(sketch len l), l zigzag varints (cumulative ToW sketch)
//	        uvarint(digest len), digest bytes (cumulative msethash digest)
//	        [bit1 only, never written] uvarint(Float64bits mean)
//	        uvarint(Float64bits variance) uvarint(count)
//	tail:   u32le footerLen | u32le bodyCRC | u32le footerCRC | "PBSSEG01"
//
// The fixed 20-byte tail at the end of the file is what makes footer-only
// reads possible; CRC32-C over body and footer separately means a
// footer-only read still validates everything it consumed.
package setstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// segMagic terminates every segment file. Bump the trailing digits on any
// incompatible format change.
const segMagic = "PBSSEG01"

// tailLen is the fixed byte length of the segment tail.
const tailLen = 4 + 4 + 4 + len(segMagic)

// flagFull marks a full-rewrite segment: its adds are the complete set and
// replay ignores everything older.
const flagFull = 1

// flagPrior marks a footer written by an older build, which persisted a
// learned d̂ prior (mean, variance, sync count) after the digest. Nothing
// ever read it back, so it is no longer written; the decoder still parses
// and validates the three fields, then drops them, so those data dirs open.
const flagPrior = 2

// maxSegmentElems bounds the element counts a decoder will allocate for,
// guarding header-claims-huge-count attacks from corrupt or fuzzed input.
// 1<<27 × 8 bytes = 1 GiB of uint64s, far above any real segment.
const maxSegmentElems = 1 << 27

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Meta is the cumulative reconciliation metadata persisted in a segment
// footer: everything a responder needs to answer an estimate (and a strong
// verification) for the set without its elements.
type Meta struct {
	Full       bool
	Count      uint64
	SketchSeed uint64
	Sketch     []int64
	Digest     []byte
}

// Segment is one decoded segment file.
type Segment struct {
	Adds []uint64 // sorted; the full set when Meta.Full
	Dels []uint64 // sorted; always empty when Meta.Full
	Meta Meta
}

// appendElems delta-encodes a sorted, duplicate-free element slice.
func appendElems(dst []byte, elems []uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(elems)))
	prev := uint64(0)
	for i, e := range elems {
		if i == 0 {
			dst = binary.AppendUvarint(dst, e)
		} else {
			dst = binary.AppendUvarint(dst, e-prev)
		}
		prev = e
	}
	return dst
}

// AppendSegment encodes seg to dst and returns the extended slice. Adds
// and Dels must be sorted ascending without duplicates (EncodeSegment's
// callers sort copies; this is the raw layer).
func AppendSegment(dst []byte, seg *Segment) []byte {
	bodyStart := len(dst)
	dst = appendElems(dst, seg.Adds)
	dst = appendElems(dst, seg.Dels)
	bodyCRC := crc32.Checksum(dst[bodyStart:], castagnoli)

	footerStart := len(dst)
	flags := uint64(0)
	if seg.Meta.Full {
		flags |= flagFull
	}
	dst = binary.AppendUvarint(dst, flags)
	dst = binary.AppendUvarint(dst, seg.Meta.Count)
	dst = binary.AppendUvarint(dst, seg.Meta.SketchSeed)
	dst = binary.AppendUvarint(dst, uint64(len(seg.Meta.Sketch)))
	for _, v := range seg.Meta.Sketch {
		dst = binary.AppendVarint(dst, v)
	}
	dst = binary.AppendUvarint(dst, uint64(len(seg.Meta.Digest)))
	dst = append(dst, seg.Meta.Digest...)
	footerCRC := crc32.Checksum(dst[footerStart:], castagnoli)

	var tail [tailLen]byte
	binary.LittleEndian.PutUint32(tail[0:], uint32(len(dst)-footerStart))
	binary.LittleEndian.PutUint32(tail[4:], bodyCRC)
	binary.LittleEndian.PutUint32(tail[8:], footerCRC)
	copy(tail[12:], segMagic)
	return append(dst, tail[:]...)
}

type decoder struct {
	b   []byte
	off int
}

func (d *decoder) uvarint() (v uint64, err error) {
	v, d.off, err = uvarintAt(d.b, d.off)
	return v, err
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("setstore: truncated varint at offset %d", d.off)
	}
	d.off += n
	return v, nil
}

// elems decodes a count and that many delta-varint elements into a slice
// with room for that many more. The count is refused before anything is
// allocated when the bytes left cannot hold it (every uvarint takes at
// least one). This is a cold load's hot loop, so it runs over a local slice
// and offset and decodes the one-, two- and three-byte varints that dense
// sets are made of inline; anything longer, and anything within ten bytes
// of the end, goes through binary.Uvarint.
func (d *decoder) elems(what string, room int) ([]uint64, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > maxSegmentElems || n > uint64(len(d.b)-d.off) {
		return nil, fmt.Errorf("setstore: segment claims %d %s in %d bytes", n, what, len(d.b)-d.off)
	}
	if n == 0 && room == 0 {
		return nil, nil
	}
	out := make([]uint64, n, int(n)+room)
	b, off := d.b, d.off
	prev := uint64(0)
	for i := range out {
		var v uint64
		if len(b)-off >= binary.MaxVarintLen64 {
			if c := b[off]; c < 0x80 {
				v = uint64(c)
				off++
			} else if c1 := b[off+1]; c1 < 0x80 {
				v = uint64(c&0x7f) | uint64(c1)<<7
				off += 2
			} else if c2 := b[off+2]; c2 < 0x80 {
				v = uint64(c&0x7f) | uint64(c1&0x7f)<<7 | uint64(c2)<<14
				off += 3
			} else {
				v, off, err = uvarintAt(b, off)
			}
		} else {
			v, off, err = uvarintAt(b, off)
		}
		if err != nil {
			return nil, err
		}
		if i > 0 {
			if v == 0 {
				return nil, fmt.Errorf("setstore: non-increasing %s at index %d", what, i)
			}
			if v += prev; v < prev {
				return nil, fmt.Errorf("setstore: %s overflow at index %d", what, i)
			}
		}
		out[i] = v
		prev = v
	}
	d.off = off
	return out, nil
}

// uvarintAt decodes the uvarint at b[off:] and returns the offset past it.
func uvarintAt(b []byte, off int) (uint64, int, error) {
	v, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return 0, off, fmt.Errorf("setstore: truncated varint at offset %d", off)
	}
	return v, off + n, nil
}

// splitSegment validates the tail and CRCs of a raw segment file and
// returns its body and footer slices.
func splitSegment(data []byte, wantBody bool) (body, footer []byte, err error) {
	if len(data) < tailLen {
		return nil, nil, fmt.Errorf("setstore: segment too short (%d bytes)", len(data))
	}
	tail := data[len(data)-tailLen:]
	if string(tail[12:]) != segMagic {
		return nil, nil, fmt.Errorf("setstore: bad segment magic")
	}
	footerLen := int(binary.LittleEndian.Uint32(tail[0:]))
	if footerLen < 0 || footerLen > len(data)-tailLen {
		return nil, nil, fmt.Errorf("setstore: footer length %d out of range", footerLen)
	}
	footer = data[len(data)-tailLen-footerLen : len(data)-tailLen]
	if crc32.Checksum(footer, castagnoli) != binary.LittleEndian.Uint32(tail[8:]) {
		return nil, nil, fmt.Errorf("setstore: footer checksum mismatch")
	}
	body = data[:len(data)-tailLen-footerLen]
	if wantBody {
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(tail[4:]) {
			return nil, nil, fmt.Errorf("setstore: body checksum mismatch")
		}
	}
	return body, footer, nil
}

func decodeFooter(footer []byte) (Meta, error) {
	d := &decoder{b: footer}
	var m Meta
	flags, err := d.uvarint()
	if err != nil {
		return m, err
	}
	m.Full = flags&flagFull != 0
	if m.Count, err = d.uvarint(); err != nil {
		return m, err
	}
	if m.SketchSeed, err = d.uvarint(); err != nil {
		return m, err
	}
	l, err := d.uvarint()
	if err != nil {
		return m, err
	}
	if l > 1<<16 || l > uint64(len(footer)-d.off) {
		return m, fmt.Errorf("setstore: sketch length %d out of range", l)
	}
	m.Sketch = make([]int64, l)
	for i := range m.Sketch {
		if m.Sketch[i], err = d.varint(); err != nil {
			return m, err
		}
	}
	dl, err := d.uvarint()
	if err != nil {
		return m, err
	}
	if dl > 1<<12 || int(dl) > len(footer)-d.off {
		return m, fmt.Errorf("setstore: digest length %d out of range", dl)
	}
	m.Digest = append([]byte(nil), footer[d.off:d.off+int(dl)]...)
	d.off += int(dl)
	if flags&flagPrior != 0 {
		mb, err := d.uvarint()
		if err != nil {
			return m, err
		}
		vb, err := d.uvarint()
		if err != nil {
			return m, err
		}
		count, err := d.uvarint()
		if err != nil {
			return m, err
		}
		// Checked as when the prior was kept — a plausible moment pair — so
		// a footer this reader used to reject is still rejected.
		mean, vr := math.Float64frombits(mb), math.Float64frombits(vb)
		if count == 0 ||
			math.IsNaN(mean) || math.IsInf(mean, 0) || mean < 0 ||
			math.IsNaN(vr) || math.IsInf(vr, 0) || vr < 0 {
			return m, fmt.Errorf("setstore: invalid prior (mean=%v var=%v count=%d)", mean, vr, count)
		}
	}
	if d.off != len(footer) {
		return m, fmt.Errorf("setstore: %d trailing footer bytes", len(footer)-d.off)
	}
	return m, nil
}

// DecodeMeta parses only the footer of a raw segment file, skipping the
// body entirely (and skipping its checksum: the body bytes are never
// consumed). This is the cheap path behind estimate-without-elements.
func DecodeMeta(data []byte) (Meta, error) {
	_, footer, err := splitSegment(data, false)
	if err != nil {
		return Meta{}, err
	}
	return decodeFooter(footer)
}

// DecodeSegment fully parses and validates a raw segment file.
func DecodeSegment(data []byte) (*Segment, error) { return decodeSegment(data, 0) }

// decodeSegment is DecodeSegment leaving room for that many more elements
// after a full segment's adds, so that a replay folds its later writes in
// without a second copy of the set.
func decodeSegment(data []byte, room int) (*Segment, error) {
	body, footer, err := splitSegment(data, true)
	if err != nil {
		return nil, err
	}
	meta, err := decodeFooter(footer)
	if err != nil {
		return nil, err
	}
	if !meta.Full {
		room = 0
	}
	d := &decoder{b: body}
	adds, err := d.elems("adds", room)
	if err != nil {
		return nil, err
	}
	dels, err := d.elems("dels", 0)
	if err != nil {
		return nil, err
	}
	if d.off != len(body) {
		return nil, fmt.Errorf("setstore: %d trailing body bytes", len(body)-d.off)
	}
	if meta.Full && len(dels) > 0 {
		return nil, fmt.Errorf("setstore: full segment carries %d deletes", len(dels))
	}
	if meta.Full && uint64(len(adds)) != meta.Count {
		return nil, fmt.Errorf("setstore: full segment has %d elements, footer says %d", len(adds), meta.Count)
	}
	return &Segment{Adds: adds, Dels: dels, Meta: meta}, nil
}
