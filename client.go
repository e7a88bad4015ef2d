package pbs

import (
	"context"
	"fmt"
	"net"
	"time"
)

// DefaultClientIdleTimeout is the per-frame deadline a Client applies when
// IdleTimeout is zero. Servers drop silent sessions after their own
// IdleTimeout (30s by default); mirroring that bound on the client side
// means a stalled, overloaded, or hostile server fails the sync with a
// timeout instead of hanging the caller forever.
const DefaultClientIdleTimeout = 30 * time.Second

// Client reconciles a local set against a pbs Server over TCP. It is the
// initiator side of the wire protocol plus the thin server envelope: the
// remote set's name in the hello, and msgError diagnostics surfaced as
// errors.
//
// The zero value is not usable — Addr is required — but every other field
// defaults sensibly. A Client is stateless and safe for concurrent use;
// each Sync dials its own connection. Callers syncing the same data
// repeatedly should hold a Set and call Set.Sync over their own
// connections instead, reusing the validated snapshot and estimator sketch
// across syncs.
type Client struct {
	// Addr is the server address (host:port).
	Addr string
	// Set names the server-side set to reconcile against. Empty means the
	// server's default set (DefaultSetName).
	Set string
	// Tenant, when non-empty, namespaces Set under a tenant: the wire name
	// becomes "Tenant/Set" ("Tenant/default" when Set is empty), which is
	// how a multi-tenant server addresses sets and accounts quotas. Leave
	// empty for unnamespaced (default-tenant) sets.
	Tenant string
	// Options is the protocol configuration; it must match the server's.
	Options *Options
	// DialTimeout bounds the TCP dial (default 10s).
	DialTimeout time.Duration
	// Timeout bounds the whole exchange (0 = none beyond the context's own
	// deadline). It is applied as a context deadline, which SyncContext
	// plumbs into the connection's read/write deadlines.
	Timeout time.Duration
	// IdleTimeout bounds the wait for each single frame: a server silent
	// for this long fails the sync with a timeout instead of hanging it.
	// 0 selects DefaultClientIdleTimeout; negative disables the bound.
	IdleTimeout time.Duration
	// Retry, when set, retries retryable sync failures (dial errors,
	// mid-round disconnects, stalls, server-busy shedding) under the
	// policy: exponential backoff with full jitter, honoring any
	// retry-after hint the server sent. Retry.Dial defaults to the
	// client's own dialer.
	Retry *RetryPolicy
}

// Sync dials the server and learns local △ remote for the configured
// remote set. It blocks until the exchange completes or fails. Equivalent
// to SyncContext with a background context.
func (c *Client) Sync(local []uint64) (*Result, error) {
	return c.SyncContext(context.Background(), local)
}

// SyncContext is Sync under a context: cancelling ctx (or reaching its
// deadline, or the Timeout field's) aborts the dial and the exchange
// promptly — the deadline is wired into the connection's read/write
// deadlines — and returns ctx.Err().
func (c *Client) SyncContext(ctx context.Context, local []uint64) (*Result, error) {
	if c.Addr == "" {
		return nil, fmt.Errorf("pbs: client has no server address")
	}
	var base []Option
	if c.Options != nil {
		base = append(base, WithOptions(*c.Options))
	}
	set, err := NewSet(local, base...)
	if err != nil {
		return nil, err
	}
	if c.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Timeout)
		defer cancel()
	}
	idle := c.IdleTimeout
	if idle == 0 {
		idle = DefaultClientIdleTimeout
	}
	opts := []Option{WithIdleTimeout(idle)}
	if name := c.remoteName(); name != "" {
		opts = append(opts, WithSetName(name))
	}
	if c.Retry != nil {
		pol := *c.Retry
		if pol.Dial == nil {
			pol.Dial = c.dial
		}
		// Sync dials (and closes) every attempt's connection itself.
		return set.Sync(ctx, nil, append(opts, WithRetry(pol))...)
	}
	conn, err := c.dial(ctx)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	return set.Sync(ctx, conn, opts...)
}

// remoteName is the set name sent on the wire: Set, namespaced under
// Tenant when one is configured. A tenant with no set name addresses the
// tenant's own "default" set — distinct from the server-wide default.
func (c *Client) remoteName() string {
	if c.Tenant == "" {
		return c.Set
	}
	set := c.Set
	if set == "" {
		set = DefaultSetName
	}
	return c.Tenant + "/" + set
}

// dial opens one TCP connection to the server under the context and the
// configured dial timeout, with TCP_NODELAY set explicitly.
func (c *Client) dial(ctx context.Context) (net.Conn, error) {
	dt := c.DialTimeout
	if dt == 0 {
		dt = 10 * time.Second
	}
	d := net.Dialer{Timeout: dt}
	conn, err := d.DialContext(ctx, "tcp", c.Addr)
	if err != nil {
		return nil, err
	}
	setNoDelay(conn)
	return conn, nil
}
