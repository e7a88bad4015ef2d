package pbs

// The wire format moved to internal/frame and the initiator constructors
// merged into SharedSet.newInitiator. The root test suites — above all the
// wire-equivalence and byte-identity ones — are left exactly as they were,
// so that their passing shows the bytes did not change; this file maps the
// unexported names they were written against onto the code that owns them
// now. Test-only: non-test code calls internal/frame directly.

import (
	"io"

	"pbs/internal/frame"
)

const (
	msgEstimate      = frame.MsgEstimate
	msgEstimateReply = frame.MsgEstimateReply
	msgRound         = frame.MsgRound
	msgRoundReply    = frame.MsgRoundReply
	msgVerify        = frame.MsgVerify
	msgVerifyReply   = frame.MsgVerifyReply
	msgDone          = frame.MsgDone
	msgHello         = frame.MsgHello
	msgError         = frame.MsgError
	msgHelloV1       = frame.MsgHelloV1
	msgHelloReplyV1  = frame.MsgHelloReplyV1
	msgStreamClose   = frame.MsgStreamClose

	maxFrame      = frame.MaxFrame
	maxPooledBuf  = frame.MaxPooledBuf
	maxRetryAfter = frame.MaxRetryAfter

	featureMux = frame.FeatureMux
	featureLZ  = frame.FeatureLZ

	muxFlagOpen       = frame.FlagOpen
	muxFlagClose      = frame.FlagClose
	muxFlagCompressed = frame.FlagCompressed
)

var (
	appendFrame    = frame.Append
	putPayloadBuf  = frame.PutBuf
	poolableBuf    = frame.Poolable
	encodeSketches = frame.EncodeSketches
	decodeSketches = frame.DecodeSketches
	appendErrCode  = frame.AppendErrCode
	splitErrCode   = frame.SplitErrCode
)

func writeFrame(w io.Writer, typ byte, payload []byte) error {
	return writeFrames(w, oneFrame(typ, payload))
}

func writeFrames(w io.Writer, frames []Frame) error {
	_, err := frame.WriteAll(w, frames)
	return err
}

func readFrame(r io.Reader) (byte, []byte, error) { return frame.ReadInto(r, frame.MaxFrame, nil) }

// validErrCode is the code-token predicate, observed through the parser
// that enforces it.
func validErrCode(code string) bool {
	_, got, _ := frame.SplitErrCode("x [pbs:e=" + code + "]")
	return code != "" && got == code
}

// muxAppendFrame and parseMuxPayload are the envelope with compression
// out of the picture, which is all the root suites exercise.
func muxAppendFrame(dst []byte, id, flags uint64, typ byte, body []byte) []byte {
	out, _ := frame.Seal(dst, id, flags, typ, body, false)
	return out
}

func parseMuxPayload(b []byte) (id, flags uint64, body []byte, err error) {
	id, flags, body, _, err = frame.Open(b, false)
	return id, flags, body, err
}

// fastHello and fastHelloReply mirror frame.Hello and frame.HelloReply
// under the field names the suites read and write.
type fastHello struct {
	version      uint64
	wantDigest   bool
	wantAdaptive bool
	features     uint64
	name         string
	specD        uint64
	sketches     []byte
	round1       []byte
}

type fastHelloReply struct {
	version    uint64
	answered   bool
	adaptive   bool
	features   uint64
	dhat       uint64
	digest     []byte
	roundReply []byte
}

func appendFastHello(dst []byte, h fastHello) []byte {
	return frame.AppendHello(dst, frame.Hello{
		Version: h.version, WantDigest: h.wantDigest, WantAdaptive: h.wantAdaptive,
		Features: h.features, Name: h.name, SpecD: h.specD, Sketches: h.sketches, Round1: h.round1,
	})
}

func parseFastHello(b []byte) (fastHello, error) {
	h, err := frame.ParseHello(b)
	return fastHello{
		version: h.Version, wantDigest: h.WantDigest, wantAdaptive: h.WantAdaptive,
		features: h.Features, name: h.Name, specD: h.SpecD, sketches: h.Sketches, round1: h.Round1,
	}, err
}

func appendFastHelloReply(dst []byte, r fastHelloReply) []byte {
	return frame.AppendHelloReply(dst, frame.HelloReply{
		Version: r.version, Answered: r.answered, Adaptive: r.adaptive, Features: r.features,
		Dhat: r.dhat, Digest: r.digest, RoundReply: r.roundReply,
	})
}

func parseFastHelloReply(b []byte) (fastHelloReply, error) {
	r, err := frame.ParseHelloReply(b)
	return fastHelloReply{
		version: r.Version, answered: r.Answered, adaptive: r.Adaptive, features: r.Features,
		dhat: r.Dhat, digest: r.Digest, roundReply: r.RoundReply,
	}, err
}

func (ss *SharedSet) newFastInitiatorSession(opt Options, onDelta func(elems []uint64, round int), name string, specD uint64) (*InitiatorSession, []Frame, error) {
	return ss.newFastInitiatorSessionFeatures(opt, onDelta, name, specD, 0, true)
}

func (ss *SharedSet) newFastInitiatorSessionFeatures(opt Options, onDelta func(elems []uint64, round int), name string, specD, features uint64, adaptive bool) (*InitiatorSession, []Frame, error) {
	return ss.newInitiator(opt, initiatorCall{onDelta: onDelta, fast: true, name: name, specD: specD, features: features, adaptive: adaptive})
}
