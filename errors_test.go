package pbs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"syscall"
	"testing"
	"time"

	"pbs/internal/frame"
)

func TestErrCodeRoundTrip(t *testing.T) {
	cases := []struct {
		msg  string
		code string
		ra   time.Duration
	}{
		{"server at session capacity", ErrCodeBusy, 250 * time.Millisecond},
		{"server over session watermark, retry later", ErrCodeBusy, 0},
		{"unknown set \"x\"", ErrCodeRejected, 0},
		{"", ErrCodeBusy, time.Second},
		{"msg with [pbs:e=busy] inside", ErrCodeRejected, 5 * time.Millisecond},
	}
	for _, c := range cases {
		wire := frame.AppendErrCode(c.msg, c.code, c.ra)
		msg, code, ra := frame.SplitErrCode(wire)
		if msg != c.msg || code != c.code || ra != c.ra {
			t.Errorf("round trip %q/%q/%v -> %q -> %q/%q/%v", c.msg, c.code, c.ra, wire, msg, code, ra)
		}
	}
	// No code: the message passes through untouched.
	if got := frame.AppendErrCode("plain", "", time.Second); got != "plain" {
		t.Errorf("empty code appended a suffix: %q", got)
	}
}

func TestSplitErrCodeRejectsMalformed(t *testing.T) {
	for _, s := range []string{
		"plain legacy error",
		"trailing [pbs:e=busy",  // unterminated
		"bad code [pbs:e=BUSY]", // uppercase
		"bad code [pbs:e=]",     // empty
		"bad code [pbs:e=waaaaaaaaaaaaaaaytoolong]",
		"bad ra [pbs:e=busy,ra=xyz]",
		"bad ra [pbs:e=busy,ra=-5s]",
		"bad field [pbs:e=busy,xx=1s]",
	} {
		msg, code, ra := frame.SplitErrCode(s)
		if msg != s || code != "" || ra != 0 {
			t.Errorf("malformed %q parsed as %q/%q/%v", s, msg, code, ra)
		}
	}
	// A huge retry-after is clamped, not trusted.
	_, code, ra := frame.SplitErrCode("x [pbs:e=busy,ra=300h]")
	if code != ErrCodeBusy || ra != frame.MaxRetryAfter {
		t.Errorf("oversized retry-after not clamped: %q %v", code, ra)
	}
}

func TestSanitizeErrMsg(t *testing.T) {
	if got := sanitizeErrMsg("ordinary diagnostic"); got != "ordinary diagnostic" {
		t.Errorf("clean message altered: %q", got)
	}
	got := sanitizeErrMsg("a\x00b\x07c\xffd")
	if got != "a?b?c?d" {
		t.Errorf("control/invalid bytes: got %q", got)
	}
	long := strings.Repeat("x", 4*maxPeerErrLen)
	got = sanitizeErrMsg(long)
	if len(got) > maxPeerErrLen+32 || !strings.HasSuffix(got, "(truncated)") {
		t.Errorf("long message not truncated: %d bytes", len(got))
	}
}

func TestPeerErrorIs(t *testing.T) {
	busy := &PeerError{Code: ErrCodeBusy, Msg: "shed"}
	if !errors.Is(busy, ErrServerBusy) {
		t.Error("busy PeerError does not match ErrServerBusy")
	}
	rej := &PeerError{Code: ErrCodeRejected, Msg: "nope"}
	if errors.Is(rej, ErrServerBusy) {
		t.Error("rejected PeerError matches ErrServerBusy")
	}
	wrapped := fmt.Errorf("outer: %w", busy)
	var pe *PeerError
	if !errors.As(wrapped, &pe) || pe.Msg != "shed" {
		t.Error("PeerError does not unwrap through fmt.Errorf")
	}
}

func TestRetryableClassification(t *testing.T) {
	retryable := []error{
		io.EOF,
		io.ErrUnexpectedEOF,
		io.ErrClosedPipe,
		net.ErrClosed,
		syscall.ECONNRESET,
		syscall.ECONNREFUSED,
		syscall.EPIPE,
		ErrServerBusy,
		&PeerError{Code: ErrCodeBusy, Msg: "shed"},
		&net.OpError{Op: "dial", Err: syscall.ECONNREFUSED},
		fmt.Errorf("wrapped: %w", io.ErrUnexpectedEOF),
		&PeerError{Code: ErrCodeQuota, RetryAfter: time.Second, Msg: "quota"},
	}
	for _, err := range retryable {
		if !Retryable(err) {
			t.Errorf("Retryable(%v) = false, want true", err)
		}
	}
	final := []error{
		nil,
		context.Canceled,
		context.DeadlineExceeded,
		ErrVerificationFailed,
		&PeerError{Msg: "pbs: unexpected message type 10"},
		&PeerError{Code: ErrCodeQuota, Msg: "byte quota"},
		&PeerError{Code: ErrCodeRejected, Msg: "unknown set"},
		&PeerError{Msg: "legacy uncoded"},
		errors.New("pbs: peer estimate d̂ = 99 exceeds limit 10"),
	}
	for _, err := range final {
		if Retryable(err) {
			t.Errorf("Retryable(%v) = true, want false", err)
		}
	}
}

func TestRetryPolicyDelay(t *testing.T) {
	pol := RetryPolicy{BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second}.withDefaults()
	for attempt := 1; attempt <= 10; attempt++ {
		ceiling := min(pol.BaseDelay<<(attempt-1), pol.MaxDelay)
		for i := 0; i < 32; i++ {
			if d := pol.delay(attempt, io.EOF); d < 0 || d > ceiling {
				t.Fatalf("attempt %d: delay %v outside [0, %v]", attempt, d, ceiling)
			}
		}
	}
	// A retry-after hint floors the jittered delay.
	hint := &PeerError{Code: ErrCodeBusy, RetryAfter: 3 * time.Second}
	for i := 0; i < 32; i++ {
		if d := pol.delay(1, hint); d < 3*time.Second {
			t.Fatalf("delay %v below the peer's retry-after floor", d)
		}
	}
}
