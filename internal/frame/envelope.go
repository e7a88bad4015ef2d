package frame

import (
	"encoding/binary"
	"fmt"
)

// The version-2 mux envelope. After a version-2 hello grants FeatureMux,
// every frame on the connection keeps the outer header but its payload
// becomes
//
//	uvarint(streamID) | uvarint(flags) | body
//
// so N logical sessions interleave over one connection. The flags carry
// stream lifecycle: open on the first frame, close on the last.
const (
	FlagOpen  = 1 << 0 // first frame of a new stream
	FlagClose = 1 << 1 // last frame of the stream (sender side)

	flagKnown = FlagOpen | FlagClose
)

// Seal serializes one complete enveloped frame — outer header, stream ID,
// flags, body — onto dst; both ends build their coalesced write batches
// with it, so a multi-frame burst still leaves in one Write.
func Seal(dst []byte, id, flags uint64, typ byte, body []byte) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, typ)
	dst = binary.AppendUvarint(dst, id)
	dst = binary.AppendUvarint(dst, flags)
	dst = append(dst, body...)
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-HeaderLen))
	return dst
}

// EnvelopeLen is what Seal adds to a body on stream id beyond the outer
// header: the stream ID's varint and the flags', which every known flag set
// keeps to one byte.
func EnvelopeLen(id uint64) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], id) + 1
}

// Open decodes the envelope off a frame payload; body aliases payload. An
// envelope is malformed — framing trust is gone, and the caller drops the
// connection — when a varint is truncated or a flag is unknown (bit 2 among
// them: it once marked an lz-compressed body, which no peer is granted).
func Open(payload []byte) (id, flags uint64, body []byte, err error) {
	id, k := binary.Uvarint(payload)
	if k <= 0 {
		return 0, 0, nil, fmt.Errorf("pbs: mux envelope: truncated stream ID")
	}
	payload = payload[k:]
	flags, k = binary.Uvarint(payload)
	if k <= 0 {
		return 0, 0, nil, fmt.Errorf("pbs: mux envelope: truncated flags")
	}
	if flags&^flagKnown != 0 {
		return 0, 0, nil, fmt.Errorf("pbs: mux envelope: unknown flags %#x", flags&^flagKnown)
	}
	return id, flags, payload[k:], nil
}
