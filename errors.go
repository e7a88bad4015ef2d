package pbs

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"syscall"
	"time"
	"unicode"
	"unicode/utf8"

	"pbs/internal/frame"
)

// Structured error codes carried in msgError payloads. The code travels as
// a backward-compatible suffix on the human-readable message (see
// frame.AppendErrCode), so legacy peers still see a plain string.
const (
	// ErrCodeBusy marks a shed-load rejection: the server is over its
	// session capacity or admission watermark. Busy errors are retryable
	// and may carry a retry-after hint.
	ErrCodeBusy = "busy"
	// ErrCodeRejected marks a protocol-level rejection (validation
	// failure, budget exhaustion, malformed frames). Not retryable.
	ErrCodeRejected = "rejected"
	// ErrCodeQuota marks a per-tenant quota rejection. Session-quota
	// rejections carry a retry-after hint (slots free as sessions drain)
	// and are retryable; quota rejections without a hint (set or byte
	// quotas, which only clear when the tenant removes data) are not.
	ErrCodeQuota = "quota"
)

// ErrServerBusy is reported (via errors.Is) when the peer shed the
// connection for load reasons and a later retry may succeed.
var ErrServerBusy = errors.New("pbs: server busy")

// ErrQuotaExceeded is reported (via errors.Is) when the peer rejected the
// session because the tenant is over one of its quotas.
var ErrQuotaExceeded = errors.New("pbs: tenant quota exceeded")

// maxPeerErrLen bounds how much of a peer-supplied error message is
// embedded in client-side errors. Anything longer is truncated.
const maxPeerErrLen = 256

// PeerError is an error reported by the remote peer over msgError. Msg is
// sanitized (length-capped, non-printables stripped); Code and RetryAfter
// are parsed from the structured suffix when present and zero otherwise.
type PeerError struct {
	Code       string
	RetryAfter time.Duration
	Msg        string
}

func (e *PeerError) Error() string { return "pbs: peer error: " + e.Msg }

// Is makes errors.Is(err, ErrServerBusy) match busy-coded peer errors and
// errors.Is(err, ErrQuotaExceeded) match quota-coded ones.
func (e *PeerError) Is(target error) bool {
	switch target {
	case ErrServerBusy:
		return e.Code == ErrCodeBusy
	case ErrQuotaExceeded:
		return e.Code == ErrCodeQuota
	}
	return false
}

// sanitizeErrMsg bounds a peer-supplied error string and replaces
// non-printable or invalid-UTF-8 bytes so hostile responders cannot bloat
// or mangle client logs.
func sanitizeErrMsg(s string) string {
	const truncMark = "... (truncated)"
	truncated := false
	if len(s) > maxPeerErrLen {
		s = s[:maxPeerErrLen]
		truncated = true
	}
	var sb strings.Builder
	sb.Grow(len(s) + len(truncMark))
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		if (r == utf8.RuneError && size == 1) || !unicode.IsPrint(r) {
			sb.WriteByte('?')
		} else {
			sb.WriteRune(r)
		}
		i += size
	}
	if truncated {
		sb.WriteString(truncMark)
	}
	return sb.String()
}

// parsePeerErrPayload turns a raw msgError payload into a *PeerError with
// a sanitized message and any structured code/retry-after hint decoded.
func parsePeerErrPayload(payload []byte) *PeerError {
	msg, code, ra := frame.SplitErrCode(string(payload))
	return &PeerError{Code: code, RetryAfter: ra, Msg: sanitizeErrMsg(msg)}
}

// Retryable classifies an error from Set.Sync: it reports whether a fresh
// attempt over a new connection could plausibly succeed.
// Transport-level failures (dial errors, resets, mid-round disconnects,
// stall timeouts) and busy-coded peer rejections are retryable; protocol
// rejections, verification failures, budget exhaustion, and context
// cancellation are not.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, ErrServerBusy) {
		return true
	}
	if errors.Is(err, ErrVerificationFailed) {
		return false
	}
	var pe *PeerError
	if errors.As(err, &pe) {
		// Quota rejections are retryable only when the server attached a
		// retry-after hint — it does so for session quotas (slots free as
		// the tenant's sessions drain) but not for set/byte quotas, which
		// stay exhausted until the tenant removes data.
		return pe.Code == ErrCodeBusy || (pe.Code == ErrCodeQuota && pe.RetryAfter > 0)
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) {
		return true
	}
	if errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, syscall.ECONNREFUSED) {
		return true
	}
	return false
}
