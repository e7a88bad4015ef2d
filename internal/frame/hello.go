package frame

import (
	"encoding/binary"
	"fmt"
)

// EncodeSketches serializes ToW sketch values as zigzag varints.
func EncodeSketches(ys []int64) []byte {
	buf := make([]byte, 0, len(ys)*3+10)
	buf = binary.AppendUvarint(buf, uint64(len(ys)))
	for _, y := range ys {
		buf = binary.AppendVarint(buf, y)
	}
	return buf
}

func DecodeSketches(b []byte) ([]int64, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > 1<<20 {
		return nil, fmt.Errorf("pbs: bad sketch count")
	}
	b = b[k:]
	ys := make([]int64, n)
	for i := range ys {
		v, k := binary.Varint(b)
		if k <= 0 {
			return nil, fmt.Errorf("pbs: truncated sketches")
		}
		ys[i] = v
		b = b[k:]
	}
	// A corrupted frame must fail loudly, not half-parse: the declared
	// count has to consume the payload exactly.
	if len(b) != 0 {
		return nil, fmt.Errorf("pbs: %d trailing bytes after sketches", len(b))
	}
	return ys, nil
}

// Version1 is the wire-protocol version a fast hello negotiates. A
// responder replies with the version it selected; initiators reject a
// reply version they did not offer. VersionMux is version 1 plus hello-time
// feature negotiation (mux): a version-2 hello carries
// want-flags, and the responder answers with version 2 and grant-flags only
// when it grants stream multiplexing — otherwise it replies version 1 and
// the session proceeds exactly as the fast v1 flow.
const (
	Version1   = 1
	VersionMux = 2
)

// Feature bits negotiated by a version-2 fast hello. FeatureLZ once
// offered per-frame lz compression inside the mux envelope; older clients
// may still offer it, and no responder grants it.
const (
	FeatureMux = 1 << 0 // multiplex N logical streams over the connection
	FeatureLZ  = 1 << 1 // retired offer bit: lz compression, never granted

	featureMask = FeatureMux | FeatureLZ
)

// Fast-path payload layouts. Every variable-length field is
// uvarint-length-prefixed except the round-1 message, which runs to the
// end of the frame (it is last, and its own codec rejects trailing bytes).
//
//	MsgHelloV1:      version | flags | len(name) name | d_spec |
//	                 len(sketches) sketches | round-1 message
//	MsgHelloReplyV1: version | flags | d̂ | [len(digest) digest] |
//	                 round-1 reply
//
// The feature bitmap sits in the flags word of either message as one
// contiguous field, so it translates by a shift.
const (
	helloFlagWantDigest   = 1 << 0 // initiator asks for the verify digest
	helloFeatureShift     = 1      // v2: bits 1-2 offer FeatureMux, FeatureLZ
	helloFlagWantAdaptive = 1 << 3 // initiator offers adaptive round re-planning

	replyFlagAnswered = 1 << 0 // the speculative round was answered
	replyFlagDigest   = 1 << 1 // a verification digest is attached
	replyFeatureShift = 2      // v2: bits 2-3 grant FeatureMux, FeatureLZ
	replyFlagAdaptive = 1 << 4 // responder granted adaptive round re-planning
)

// Adaptive round re-planning is negotiated in the same hello exchange but
// independently of the version-2 feature bits: it needs no mux envelope,
// so it works on a plain version-1 fast session. The grant is carried as a
// reply flag rather than a feature bit because version-1 replies must keep
// an empty feature set (initiators reject anything else). Peers that
// predate the flag ignore unknown bits on both sides, so the offer
// degrades to a static-plan session, never an error. Once granted, every
// round message with round number ≥ 2 carries a re-derived (m, t) header —
// see internal/core's adaptive round format.

// maxNameLen bounds the set name carried in a fast hello (the name shares
// the frame with the sketch and round payloads, so it gets its own cap).
const maxNameLen = 1 << 10

// maxDigestLen bounds the verification digest attached to a hello reply.
const maxDigestLen = 64

// Hello is the decoded form of a MsgHelloV1 payload. Byte-slice fields
// alias the frame payload; Step consumes them before returning.
type Hello struct {
	Version      uint64
	WantDigest   bool
	WantAdaptive bool   // initiator offers adaptive round re-planning
	Features     uint64 // requested feature bits (FeatureMux | FeatureLZ), v2 only
	Name         string
	SpecD        uint64 // speculative difference bound the round was sized for
	Sketches     []byte // EncodeSketches form
	Round1       []byte // Alice's round 1 built under plan(SpecD)
}

func AppendHello(dst []byte, h Hello) []byte {
	dst = binary.AppendUvarint(dst, h.Version)
	flags := (h.Features & featureMask) << helloFeatureShift
	if h.WantDigest {
		flags |= helloFlagWantDigest
	}
	if h.WantAdaptive {
		flags |= helloFlagWantAdaptive
	}
	dst = binary.AppendUvarint(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(h.Name)))
	dst = append(dst, h.Name...)
	dst = binary.AppendUvarint(dst, h.SpecD)
	dst = binary.AppendUvarint(dst, uint64(len(h.Sketches)))
	dst = append(dst, h.Sketches...)
	return append(dst, h.Round1...)
}

// cutUvarint decodes one uvarint off the front of b.
func cutUvarint(b []byte, what string) (uint64, []byte, error) {
	v, k := binary.Uvarint(b)
	if k <= 0 {
		return 0, nil, fmt.Errorf("pbs: fast hello: truncated %s", what)
	}
	return v, b[k:], nil
}

// cutBytes decodes a uvarint-length-prefixed byte field off the front of
// b, bounding the declared length by limit.
func cutBytes(b []byte, limit uint64, what string) ([]byte, []byte, error) {
	n, b, err := cutUvarint(b, what)
	if err != nil {
		return nil, nil, err
	}
	if n > limit || n > uint64(len(b)) {
		return nil, nil, fmt.Errorf("pbs: fast hello: oversized %s", what)
	}
	return b[:n], b[n:], nil
}

func ParseHello(b []byte) (h Hello, err error) {
	if h.Version, b, err = cutUvarint(b, "version"); err != nil {
		return Hello{}, err
	}
	flags, b, err := cutUvarint(b, "flags")
	if err != nil {
		return Hello{}, err
	}
	h.WantDigest = flags&helloFlagWantDigest != 0
	h.WantAdaptive = flags&helloFlagWantAdaptive != 0
	h.Features = flags >> helloFeatureShift & featureMask
	name, b, err := cutBytes(b, maxNameLen, "set name")
	if err != nil {
		return Hello{}, err
	}
	h.Name = string(name)
	if h.SpecD, b, err = cutUvarint(b, "d_spec"); err != nil {
		return Hello{}, err
	}
	if h.Sketches, b, err = cutBytes(b, uint64(len(b)), "sketches"); err != nil {
		return Hello{}, err
	}
	h.Round1 = b
	return h, nil
}

// HelloReply is the decoded form of a MsgHelloReplyV1 payload.
type HelloReply struct {
	Version    uint64
	Answered   bool
	Adaptive   bool   // responder granted adaptive round re-planning
	Features   uint64 // granted feature bits, v2 only (subset of the request)
	Dhat       uint64 // true estimate from the piggybacked sketches
	Digest     []byte // nil, or the strong-verification digest
	RoundReply []byte // Bob's round-1 reply when answered
}

func AppendHelloReply(dst []byte, r HelloReply) []byte {
	dst = binary.AppendUvarint(dst, r.Version)
	flags := (r.Features & featureMask) << replyFeatureShift
	if r.Answered {
		flags |= replyFlagAnswered
	}
	if r.Digest != nil {
		flags |= replyFlagDigest
	}
	if r.Adaptive {
		flags |= replyFlagAdaptive
	}
	dst = binary.AppendUvarint(dst, flags)
	dst = binary.AppendUvarint(dst, r.Dhat)
	if r.Digest != nil {
		dst = binary.AppendUvarint(dst, uint64(len(r.Digest)))
		dst = append(dst, r.Digest...)
	}
	return append(dst, r.RoundReply...)
}

func ParseHelloReply(b []byte) (r HelloReply, err error) {
	if r.Version, b, err = cutUvarint(b, "reply version"); err != nil {
		return HelloReply{}, err
	}
	flags, b, err := cutUvarint(b, "reply flags")
	if err != nil {
		return HelloReply{}, err
	}
	r.Answered = flags&replyFlagAnswered != 0
	r.Adaptive = flags&replyFlagAdaptive != 0
	r.Features = flags >> replyFeatureShift & featureMask
	if r.Dhat, b, err = cutUvarint(b, "d̂"); err != nil {
		return HelloReply{}, err
	}
	if flags&replyFlagDigest != 0 {
		if r.Digest, b, err = cutBytes(b, maxDigestLen, "digest"); err != nil {
			return HelloReply{}, err
		}
	}
	if r.Answered {
		r.RoundReply = b
	} else if len(b) != 0 {
		return HelloReply{}, fmt.Errorf("pbs: fast hello: %d trailing bytes after declined reply", len(b))
	}
	return r, nil
}
