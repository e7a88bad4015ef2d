package frame

import (
	"encoding/binary"
	"fmt"

	"pbs/internal/lz"
)

// The version-2 mux envelope. After a version-2 hello grants FeatureMux,
// every frame on the connection keeps the outer header but its payload
// becomes
//
//	uvarint(streamID) | uvarint(flags) | body
//
// so N logical sessions interleave over one connection. The flags carry
// stream lifecycle (open on the first frame, close on the last) and
// per-frame compression.
const (
	FlagOpen       = 1 << 0 // first frame of a new stream
	FlagClose      = 1 << 1 // last frame of the stream (sender side)
	FlagCompressed = 1 << 2 // body is lz-compressed

	flagKnown = FlagOpen | FlagClose | FlagCompressed
)

// compressMin is the smallest body worth offering to the compressor:
// below it the lz header overhead and the CPU spent can't win anything
// that matters, so tiny frames (done, round replies for small d) skip it.
const compressMin = 512

// Seal serializes one complete enveloped frame — outer header, stream ID,
// flags, body — onto dst; both ends build their coalesced write batches
// with it, so a multi-frame burst still leaves in one Write. Under a
// negotiated-lz connection (lzOn) a body that clears the size threshold
// and that the codec actually shrinks goes out compressed, flagged as such,
// and saved reports the bytes that bought; anything else goes out plain
// (the receiver keys off the per-frame flag, so declining is always safe).
func Seal(dst []byte, id, flags uint64, typ byte, body []byte, lzOn bool) (out []byte, saved int) {
	if lzOn && len(body) >= compressMin {
		if comp := lz.Compress(nil, body); comp != nil {
			saved = len(body) - len(comp)
			body, flags = comp, flags|FlagCompressed
		}
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, typ)
	dst = binary.AppendUvarint(dst, id)
	dst = binary.AppendUvarint(dst, flags)
	dst = append(dst, body...)
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-HeaderLen))
	return dst, saved
}

// Open decodes the envelope off a frame payload. A plain body aliases
// payload; a compressed one is decoded into a fresh buffer, saved reporting
// the bytes the compression kept off the wire. An envelope is malformed —
// framing trust is gone, and the caller drops the connection — when a varint
// is truncated, a flag is unknown, the body is compressed on a connection
// that never granted lz, or the compressed body does not decode.
func Open(payload []byte, lzGranted bool) (id, flags uint64, body []byte, saved int, err error) {
	id, k := binary.Uvarint(payload)
	if k <= 0 {
		return 0, 0, nil, 0, fmt.Errorf("pbs: mux envelope: truncated stream ID")
	}
	payload = payload[k:]
	flags, k = binary.Uvarint(payload)
	if k <= 0 {
		return 0, 0, nil, 0, fmt.Errorf("pbs: mux envelope: truncated flags")
	}
	body = payload[k:]
	if flags&^flagKnown != 0 {
		return 0, 0, nil, 0, fmt.Errorf("pbs: mux envelope: unknown flags %#x", flags&^flagKnown)
	}
	if flags&FlagCompressed != 0 {
		if !lzGranted {
			return 0, 0, nil, 0, fmt.Errorf("pbs: mux envelope: compressed body without an lz grant")
		}
		plain, err := lz.Decode(nil, body, MaxFrame)
		if err != nil {
			return 0, 0, nil, 0, fmt.Errorf("pbs: mux envelope: %w", err)
		}
		saved, body = len(plain)-len(body), plain
	}
	return id, flags, body, saved, nil
}
