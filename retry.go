package pbs

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"
)

// RetryPolicy controls how Set.Sync (under WithRetry) retries retryable
// failures. Zero-valued fields take the defaults noted on each field.
// Classification of failures is done by Retryable; see its doc for the
// taxonomy.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget including the first try.
	// Default 4.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff: the delay ceiling before
	// attempt n (1-based retries) is BaseDelay << (n-1), capped at
	// MaxDelay, with full jitter applied. Default 50ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff ceiling. Default 2s.
	MaxDelay time.Duration
	// AttemptTimeout, when positive, bounds each individual attempt with
	// its own deadline (layered under the caller's ctx). An attempt that
	// times out is treated as a stall and retried while the parent ctx
	// is still live.
	AttemptTimeout time.Duration
	// Dial produces a fresh connection for an attempt. Required for any
	// retry to happen when syncing over a raw conn: the failed conn is
	// closed and cannot be reused. With Dial set, Sync may be passed a
	// nil conn and dials every attempt itself.
	Dial func(ctx context.Context) (net.Conn, error)
	// OnRetry, when set, observes each scheduled retry: attempt is the
	// 1-based number of the attempt that just failed, err its failure,
	// and delay the backoff chosen before the next try.
	OnRetry func(attempt int, err error, delay time.Duration)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// delay picks the backoff before the next try after 1-based attempt n
// failed with err: exponential ceiling with full jitter, floored at any
// retry-after hint the server sent.
func (p RetryPolicy) delay(attempt int, err error) time.Duration {
	d := p.BaseDelay
	for i := 1; i < attempt && d < p.MaxDelay; i++ {
		d <<= 1
	}
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	d = time.Duration(rand.Int63n(int64(d) + 1))
	var pe *PeerError
	if errors.As(err, &pe) && pe.RetryAfter > d {
		d = pe.RetryAfter
	}
	return d
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// syncRetry wraps syncAttempt in the retry loop configured by cfg.retry.
// The first attempt uses conn when non-nil; every subsequent attempt needs
// pol.Dial. A failed attempt's connection is always closed — including a
// caller-provided conn — because a sync error leaves the stream in an
// unknown state. A successful attempt's connection is closed only when it
// was dialed here; a caller-provided conn that succeeds stays open and
// remains the caller's to manage. A failure that is not retried, including
// one of Dial itself, is returned as it is.
func (s *Set) syncRetry(ctx context.Context, conn net.Conn, cfg *setConfig) (*Result, error) {
	pol := cfg.retry.withDefaults()
	for attempt := 1; ; attempt++ {
		res, err := s.retryAttempt(ctx, conn, &pol, cfg)
		conn = nil // only the first attempt may use the caller's conn
		if err == nil {
			return res, nil
		}
		// An attempt-deadline expiry is a stall, retryable as long as
		// the parent ctx is still live.
		retryable := Retryable(err) ||
			(pol.AttemptTimeout > 0 && errors.Is(err, context.DeadlineExceeded))
		switch {
		case ctx.Err() != nil || !retryable:
			return nil, err
		case attempt >= pol.MaxAttempts:
			return nil, fmt.Errorf("pbs: sync failed after %d attempts: %w", attempt, err)
		case pol.Dial == nil:
			return nil, fmt.Errorf("pbs: cannot retry without a RetryPolicy.Dial hook: %w", err)
		}
		d := pol.delay(attempt, err)
		if pol.OnRetry != nil {
			pol.OnRetry(attempt, err, d)
		}
		if serr := sleepCtx(ctx, d); serr != nil {
			return nil, serr
		}
	}
}

// retryAttempt is one attempt of syncRetry: a sync over conn, or over a
// connection dialed through pol.Dial when conn is nil, under the policy's
// per-attempt deadline. It closes the connection unless the sync succeeded
// over the caller's conn.
func (s *Set) retryAttempt(ctx context.Context, conn net.Conn, pol *RetryPolicy, cfg *setConfig) (*Result, error) {
	dialed := conn == nil
	if dialed {
		if pol.Dial == nil {
			return nil, errors.New("pbs: Sync needs a connection or a RetryPolicy.Dial hook")
		}
		c, err := pol.Dial(ctx)
		if err != nil {
			return nil, err
		}
		conn = c
	}
	if pol.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, pol.AttemptTimeout)
		defer cancel()
	}
	res, err := s.syncAttempt(ctx, conn, cfg)
	if err != nil || dialed {
		conn.Close()
	}
	return res, err
}
