// Package frame is the one module that knows the byte layout of the PBS
// wire protocol: the length-prefixed frame header, the ToW sketch vector,
// the fast-path hello and its reply, the version-2 mux envelope, and the
// structured suffix of a msgError payload. The session engines, the
// connection loops of both mux ends and the chaos layer all seal and open
// bytes through it; the protocol logic — who sends what when, and what a
// value means — stays with them.
//
// Message flow (I = initiator, R = responder), hello-v1 → round* → done:
//
//	I -> R  MsgHelloV1       set name, ℓ ToW sketches of I's set, d_spec,
//	                         and round 1 built under plan(d_spec)
//	R -> I  MsgHelloReplyV1  round(d̂), the round-1 reply unless the
//	                         speculation was declined, and (when asked) the
//	                         32-byte multiset-hash digest of R's set
//	I -> R  MsgRound         scope descriptors + BCH codewords   ┐ repeated
//	R -> I  MsgRoundReply    positions, XOR sums, checksums      ┘ per round
//	I -> R  MsgDone          closes the session
//
// Frames are length-prefixed with a one-byte type. A responder reports a
// rejected or failed session with a final MsgError. The hello exchange
// (hello.go) may also negotiate the mux envelope (envelope.go).
package frame

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
)

// Frame is one protocol message: a type byte plus its payload. The wire
// representation adds the 4-byte length prefix (see Write).
type Frame struct {
	Type    byte
	Payload []byte
}

// Message types. Types 1, 2, 5, 6 and 8 belonged to protocol 0, whose
// separate estimate, verify and naming exchanges the hello replaced. They
// are retired — no session engine sends or accepts them, so a peer that
// opens with one is refused like any unknown opening — and stay reserved
// so every later type keeps its byte.
const (
	_ = iota + 1 // retired: estimate
	_            // retired: estimate reply
	MsgRound
	MsgRoundReply
	_ // retired: verify
	_ // retired: verify reply
	MsgDone
	_               // retired: bare hello naming the set
	MsgError        // responder -> initiator: session rejected or failed, payload = text
	MsgHelloV1      // fast initiator open: version + name + sketches + speculative round 1
	MsgHelloReplyV1 // fast responder answer: d̂ + optional round-1 reply + optional digest
	MsgStreamClose  // mux only: bare stream teardown without a session message
)

// MaxFrame bounds a frame to keep a malicious peer from forcing huge
// allocations.
const MaxFrame = 64 << 20

// HeaderLen is the size of the outer frame header: a 4-byte big-endian
// payload length plus the 1-byte message type.
const HeaderLen = 5

// coalesceLimit is the largest frame batch that gets copied into one
// contiguous buffer for a single Write. Beyond it, frames go out as a
// net.Buffers vector — one writev on a real TCP connection — instead of
// memcpy'ing megabytes.
const coalesceLimit = 256 << 10

func putHeader(hdr []byte, typ byte, n int) {
	binary.BigEndian.PutUint32(hdr[:4], uint32(n))
	hdr[4] = typ
}

// ParseHeader decodes the frame header at the front of hdr (HeaderLen bytes
// or more): the declared payload length and the message type.
func ParseHeader(hdr []byte) (n uint32, typ byte) {
	return binary.BigEndian.Uint32(hdr[:4]), hdr[4]
}

// Append serializes one frame (length prefix, type, payload) onto dst.
func Append(dst []byte, typ byte, payload []byte) []byte {
	var hdr [HeaderLen]byte
	putHeader(hdr[:], typ, len(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// WriteAll sends every frame a session step produced, in order, and
// reports the wire bytes that took. The batch is coalesced through a pooled
// buffer into one Write — a header and its payload in separate Writes meant
// two TCP segments (or a Nagle stall) per frame and dominated loopback sync
// latency — whenever it fits coalesceLimit, and goes out as one gather write
// otherwise.
func WriteAll(w io.Writer, frames []Frame) (total int, err error) {
	for _, f := range frames {
		total += HeaderLen + len(f.Payload)
	}
	if total == 0 {
		return 0, nil
	}
	if total <= coalesceLimit {
		buf := GetBuf()
		b := (*buf)[:0]
		for _, f := range frames {
			b = Append(b, f.Type, f.Payload)
		}
		_, err = w.Write(b)
		*buf = b[:0]
		PutBuf(buf)
		return total, err
	}
	hdrs := make([]byte, HeaderLen*len(frames))
	bufs := make(net.Buffers, 0, 2*len(frames))
	for i, f := range frames {
		h := hdrs[HeaderLen*i : HeaderLen*(i+1)]
		putHeader(h, f.Type, len(f.Payload))
		bufs = append(bufs, h)
		if len(f.Payload) > 0 {
			bufs = append(bufs, f.Payload)
		}
	}
	_, err = bufs.WriteTo(w)
	return total, err
}

// readChunk is the increment ReadInto grows a payload buffer by, so held
// memory tracks bytes actually delivered rather than bytes claimed.
const readChunk = 256 << 10

// LimitError reports a frame rejected on its declared size alone, before
// any payload was read. The Server matches on it to tell a budget-capped
// rejection apart from transport failures.
type LimitError struct{ N uint32 }

func (e *LimitError) Error() string {
	return fmt.Sprintf("pbs: frame of %d bytes exceeds limit", e.N)
}

// ReadInto reads one frame whose payload may not exceed limit into buf's
// capacity (buf must have length 0; nil allocates). The payload buffer
// grows chunk-wise as data arrives: a peer that declares a huge frame and
// then stalls pins (at most) one chunk, not the claimed size — the
// allocation-amplification defense the Server relies on when it multiplies
// connections by the hundreds. A session pump that hands the previous
// frame's buffer back in reads its whole exchange into one steadily-sized
// allocation instead of one fresh payload per frame — with thousands of
// concurrent sessions the difference is most of the server's allocation
// churn. The returned payload aliases buf whenever it fits, so callers must
// not hand the buffer to a new frame read while the previous payload is
// still in use; the chunk-wise growth applies only to capacity beyond what
// buf already owns.
func ReadInto(r io.Reader, limit uint32, buf []byte) (typ byte, payload []byte, err error) {
	var hdr [HeaderLen]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n, typ := ParseHeader(hdr[:])
	if n > limit {
		return 0, nil, &LimitError{N: n}
	}
	payload = buf[:0]
	for uint32(len(payload)) < n {
		take := n - uint32(len(payload))
		// Capacity already owned is free to fill in one read; beyond it,
		// grow by at most one chunk per read.
		if owned := uint32(cap(payload) - len(payload)); owned > 0 && take > owned {
			take = owned
		} else if owned == 0 && take > readChunk {
			take = readChunk
		}
		start := len(payload)
		payload = slices.Grow(payload, int(take))[:start+int(take)]
		if _, err = io.ReadFull(r, payload[start:]); err != nil {
			return 0, nil, err
		}
	}
	return typ, payload, nil
}

// bufPool recycles frame payload buffers across sessions and connections.
// Buffers that ballooned past MaxPooledBuf (a legitimately huge frame) are
// dropped instead of pinned in the pool.
var bufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4<<10); return &b },
}

const MaxPooledBuf = 1 << 20

func GetBuf() *[]byte { return bufPool.Get().(*[]byte) }

// Poolable reports whether a payload buffer of capacity c may return to
// the pool: a single near-MaxFrame hostile frame must not pin tens of
// megabytes in the pool forever.
func Poolable(c int) bool { return c <= MaxPooledBuf }

func PutBuf(b *[]byte) {
	if Poolable(cap(*b)) {
		*b = (*b)[:0]
		bufPool.Put(b)
	}
}
