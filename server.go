package pbs

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pbs/internal/core"
	"pbs/internal/frame"
	"pbs/internal/hist"
	"pbs/internal/registry"
	"pbs/internal/setstore"
)

// Server answers reconciliation sessions concurrently over TCP (or any
// net.Listener). It is the deployment shape the non-blocking session
// engine exists for: every session drives a responderSession against the
// current immutable view of a hosted set from the server's registry, so N
// concurrent sessions share one validated snapshot of each set — one ToW
// sketch, one strong-verification digest, one group partition per plan
// size — instead of N private copies.
//
// One connection loop (handle) serves every connection, whatever framing it
// negotiated, through a per-connection table of session runners. It
// enforces per-session limits on top of the engine's own hardening
// (Options.MaxD): a cap on concurrent connections, an idle deadline per
// frame, a total byte budget per session, and a round budget. Violations
// are reported to the client as a coded msgError — the connection's final
// frame under raw framing, that stream's final frame under mux — and
// counted in the server stats.
//
// Protocol: a client opens a session with a single msgHelloV1 frame (the
// registered set's name, sketches, and a speculative first round in one);
// an empty name selects DefaultSetName. Everything after that is the
// standard wire protocol (internal/frame), so a Set.Sync or Client
// initiator talks to a Server unchanged, and the common warm sync completes
// in one round trip. After a completed session the connection stays open
// and accepts another hello, so a warm client (Set.Sync over a held
// connection) amortizes the dial across many syncs; each session gets
// fresh byte and round budgets. A version-2 hello may instead negotiate
// stream multiplexing (mux.go): the same loop then carries many sessions
// at once, one per stream, each under its own budgets.
type Server struct {
	opt ServerOptions

	// sets is the sharded set registry: striped by name hash so lookups on
	// the session hot path take only one shard's read lock, with per-tenant
	// ("tenant/name") quota accounting layered on top.
	sets *registry.Registry[*hostedSet]
	// hosted manages the registered sets and their protocol options (nil,
	// with hostedErr, when those are invalid; see hosted.go); store is the
	// segment layer, non-nil once EnableHosting has opened DataDir.
	hosted      *hostedStore
	hostedErr   error
	store       *setstore.Store
	closeHosted sync.Once

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool
	// drainCh is closed (once) when the server starts closing, so accept
	// backoff sleeps and similar waits unblock immediately on Close or
	// Shutdown instead of riding out their timers.
	drainCh chan struct{}

	// connCount gauges accepted connections (including ones still before
	// their first frame) and backs the MaxSessions capacity check;
	// sessActive gauges connections with a protocol session in flight and
	// backs Stats().Active and Shutdown's drain, so an idle probe that
	// never sends a frame cannot hold up a graceful shutdown.
	connCount  atomic.Int64
	sessActive atomic.Int64

	accepted        atomic.Int64
	completed       atomic.Int64
	failed          atomic.Int64
	rejected        atomic.Int64
	shed            atomic.Int64
	bytesIn         atomic.Int64
	bytesOut        atomic.Int64
	rounds          atomic.Int64
	quotaRejections atomic.Int64

	// Mux accounting: streamsOpen gauges currently open mux streams across
	// all connections, and streamsTotal counts every stream ever opened.
	streamsOpen  atomic.Int64
	streamsTotal atomic.Int64

	// Adaptive-controller accounting across completed sessions: rounds
	// served under re-planned (m, t) parameters, and fast hellos whose
	// speculative round was answered in the opening reply (the initiator's
	// learned d̂ prior sized it right).
	adaptiveReplans atomic.Int64
	priorHits       atomic.Int64

	// Per-completed-session distributions (see ServerStats): wall-clock
	// latency in microseconds, protocol rounds, and wire bytes. Striped
	// atomics — recording is one atomic add, safe from every connection
	// goroutine at once.
	latencyHist hist.Histogram
	roundsHist  hist.Histogram
	bytesHist   hist.Histogram
}

// DefaultSetName is the registry entry a session reconciles against when
// the client's hello names no set.
const DefaultSetName = "default"

// Defaults for the per-session limits of ServerOptions.
const (
	DefaultMaxSessions       = 1024
	DefaultIdleTimeout       = 30 * time.Second
	DefaultSessionByteBudget = 16 * frame.MaxFrame       // 1 GiB of frames per session
	DefaultSessionMaxRounds  = 2 * core.DefaultMaxRounds // headroom over the engine's own cap
	// DefaultRetryAfterHint is the base retry-after hint attached to
	// busy-coded rejections when ServerOptions.RetryAfterHint is zero.
	DefaultRetryAfterHint = 250 * time.Millisecond
	// DefaultMaxStreams is the per-connection cap on concurrently open
	// mux streams when ServerOptions.MaxStreams is zero.
	DefaultMaxStreams = 128
)

// ServerOptions configures a Server. The zero value serves with the
// protocol defaults and the Default* session limits.
type ServerOptions struct {
	// Protocol is the protocol configuration every session runs under;
	// clients must use identical protocol options (Seed, SigBits, sketch
	// count, …). Its MaxD field is the d̂ cap the session engine enforces.
	Protocol *Options

	// MaxSessions caps concurrently open connections (each carries at
	// most one session; the cap also shields the server from idle
	// connection floods before a first frame arrives). Connections beyond
	// the cap are rejected with msgError. 0 selects DefaultMaxSessions;
	// negative removes the cap. Stats().Active reports only connections
	// actually reconciling.
	MaxSessions int
	// IdleTimeout is the per-frame read deadline: a session that sends
	// nothing for this long is dropped. 0 selects DefaultIdleTimeout;
	// negative disables the deadline.
	IdleTimeout time.Duration
	// SessionByteBudget caps the total wire bytes (both directions) of one
	// session. 0 selects DefaultSessionByteBudget; negative removes the cap.
	SessionByteBudget int64
	// SessionMaxRounds caps the msgRound frames answered in one session.
	// 0 selects DefaultSessionMaxRounds; negative removes the cap.
	SessionMaxRounds int
	// SoftSessionWatermark sheds new connections (busy-coded msgError with
	// a retry-after hint) before the hard MaxSessions cap is reached,
	// keeping headroom for the sequential session reuse of already-warm
	// connections while the server is saturated. 0 selects a default of
	// MaxSessions minus 1/8 headroom when MaxSessions >= 16 (disabled for
	// smaller caps); negative disables the watermark.
	SoftSessionWatermark int
	// RetryAfterHint is the base retry-after duration attached to
	// busy-coded rejections (watermark sheds and shutdown drains; the hard
	// capacity cap hints twice this). 0 selects DefaultRetryAfterHint;
	// negative omits the hint.
	RetryAfterHint time.Duration
	// MaxStreams caps the mux streams concurrently open on one connection
	// once a version-2 hello negotiates multiplexing; opens beyond the cap
	// are rejected per-stream with a busy-coded msgError. 0 selects
	// DefaultMaxStreams; negative disables mux negotiation entirely (every
	// feature offer is declined and connections stay single-stream).
	MaxStreams int

	// TenantQuota is the default per-tenant quota; a zero value means
	// unlimited. Per-tenant overrides via SetTenantQuota. Tenants are the
	// prefix of "tenant/name" set names; unprefixed names share the
	// anonymous tenant "".
	TenantQuota TenantQuota
	// DataDir is the directory the hosted-set segment store lives in;
	// EnableHosting opens it. Empty means hosted sets are memory-only and
	// never evicted.
	DataDir string
	// MaxResidentBytes is the watermark on the summed in-memory charge of
	// resident hosted sets: when exceeded, least-recently-used hosted sets
	// are flushed and evicted down to the watermark (they keep answering
	// estimates from persisted metadata; elements page back in on demand).
	// 0 means unlimited. Requires DataDir — without the persistence layer
	// eviction would discard data, so memory-only hosting ignores it.
	MaxResidentBytes int64
}

// TenantQuota bounds what one tenant may hold and do on a Server. Zero
// fields are unlimited. Bytes are logical (8 per element); sessions are
// concurrently active reconciliation sessions across the tenant's sets.
type TenantQuota struct {
	MaxSets     int64
	MaxBytes    int64
	MaxSessions int64
}

func (q TenantQuota) toRegistry() registry.Quota {
	return registry.Quota{MaxSets: q.MaxSets, MaxBytes: q.MaxBytes, MaxSessions: q.MaxSessions}
}

func (o ServerOptions) maxSessions() int64 {
	if o.MaxSessions == 0 {
		return DefaultMaxSessions
	}
	return int64(o.MaxSessions)
}

func (o ServerOptions) idleTimeout() time.Duration {
	if o.IdleTimeout == 0 {
		return DefaultIdleTimeout
	}
	return o.IdleTimeout
}

func (o ServerOptions) sessionByteBudget() int64 {
	if o.SessionByteBudget == 0 {
		return DefaultSessionByteBudget
	}
	return o.SessionByteBudget
}

func (o ServerOptions) sessionMaxRounds() int {
	if o.SessionMaxRounds == 0 {
		return DefaultSessionMaxRounds
	}
	return o.SessionMaxRounds
}

func (o ServerOptions) softWatermark() int64 {
	switch {
	case o.SoftSessionWatermark > 0:
		return int64(o.SoftSessionWatermark)
	case o.SoftSessionWatermark < 0:
		return 0
	}
	max := o.maxSessions()
	if max < 16 {
		// Tiny caps have no headroom worth reserving; shedding below
		// them would only reject traffic the hard cap still admits.
		return 0
	}
	return max - max/8
}

func (o ServerOptions) retryAfterHint() time.Duration {
	switch {
	case o.RetryAfterHint > 0:
		return o.RetryAfterHint
	case o.RetryAfterHint < 0:
		return 0
	}
	return DefaultRetryAfterHint
}

func (o ServerOptions) maxStreams() int {
	switch {
	case o.MaxStreams > 0:
		return o.MaxStreams
	case o.MaxStreams < 0:
		return 0
	}
	return DefaultMaxStreams
}

// allowedFeatures is the feature bitmap the connection loop may grant to a
// version-2 fast hello: mux whenever mux is enabled.
func (o ServerOptions) allowedFeatures() uint64 {
	if o.maxStreams() <= 0 {
		return 0
	}
	return frame.FeatureMux
}

// ServerStats is a point-in-time snapshot of a Server's counters, fit for
// an expvar.Func or a metrics endpoint.
type ServerStats struct {
	Active    int64 // sessions currently reconciling
	Accepted  int64 // connections admitted past the capacity check (includes probes that never start a session)
	Completed int64 // sessions ended by the initiator's msgDone (a connection may complete several in sequence)
	Failed    int64 // sessions ended by an error, limit, or disconnect
	Rejected  int64 // connections turned away at the capacity check or during shutdown
	Shed      int64 // subset of Rejected turned away by the soft admission watermark
	BytesIn   int64 // wire bytes read across all sessions
	BytesOut  int64 // wire bytes written across all sessions
	Rounds    int64 // protocol rounds answered in completed sessions

	StreamsOpen  int64 // mux streams currently open across all connections
	StreamsTotal int64 // mux streams ever opened
	// BytesSavedCompression is always 0.
	//
	// Deprecated: no connection negotiates compression.
	BytesSavedCompression int64

	// Adaptive-controller counters over completed sessions. AdaptiveReplans
	// is the total number of rounds served under (m, t) parameters the
	// adaptive controller re-derived away from the static plan; PriorHits
	// counts fast hellos whose speculative round was answered in the
	// opening reply — i.e. syncs where the initiator's learned d̂ prior (or
	// an explicit KnownD) sized the speculation right and the session
	// completed its first round in a single round trip.
	AdaptiveReplans int64
	PriorHits       int64

	// Hosted-set registry counters; every registered set is hosted,
	// Register's included. SetsHosted counts them; the rest cover the hosted
	// layer: sets currently resident in memory, their summed charge, cold
	// sets brought back (cold loads: paged in from the segment store, or
	// taken back from an eviction write still in flight), LRU evictions
	// under MaxResidentBytes,
	// segment chains compacted (SegmentMerges: a full segment written onto
	// an existing chain, which prunes it — the write that would bring a
	// chain to DefaultMergeThreshold, or a Host replacing a persisted set),
	// and sessions or registrations rejected on a tenant quota.
	SetsHosted      int64
	SetsResident    int64
	ResidentBytes   int64
	ColdLoads       int64
	Evictions       int64
	SegmentMerges   int64
	QuotaRejections int64

	// Distributions over completed sessions, recorded at the moment the
	// initiator's msgDone lands. LatencyUS is the wall-clock session
	// duration (admission to close) in microseconds; SessionRounds the
	// protocol rounds answered; SessionBytes the session's wire bytes in
	// both directions. Quantiles are histogram-interpolated (<= 12.5%
	// relative error); Max is exact.
	LatencyUS     HistogramSummary
	SessionRounds HistogramSummary
	SessionBytes  HistogramSummary
}

// HistogramSummary is the fixed quantile digest of one server histogram,
// JSON-friendly for the expvar endpoint.
type HistogramSummary struct {
	Count int64   // observations (completed sessions)
	Sum   int64   // sum of observed values
	Max   int64   // largest observation (exact)
	P50   float64 // median
	P95   float64
	P99   float64
}

func summarize(s hist.Snapshot) HistogramSummary {
	return HistogramSummary{
		Count: s.Count,
		Sum:   s.Sum,
		Max:   s.Max,
		P50:   s.Quantile(0.50),
		P95:   s.Quantile(0.95),
		P99:   s.Quantile(0.99),
	}
}

// NewServer returns a Server with an empty set registry. Register at least
// one set (typically DefaultSetName) before calling Serve.
func NewServer(opt ServerOptions) *Server {
	s := &Server{
		opt:       opt,
		sets:      registry.New[*hostedSet](registry.DefaultShards, opt.TenantQuota.toRegistry()),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
		drainCh:   make(chan struct{}),
	}
	// Invalid protocol options surface on the first Host, Register or
	// EnableHosting call, not here, so NewServer keeps its no-error
	// signature.
	s.hosted, s.hostedErr = newHostedStore(opt.Protocol, opt.MaxResidentBytes)
	return s
}

// SetTenantQuota overrides the default TenantQuota for one tenant. It may
// be called at any time; lowered quotas apply to new reservations only
// (existing sets and sessions are never revoked).
func (s *Server) SetTenantQuota(tenant string, q TenantQuota) {
	s.sets.SetQuota(tenant, q.toRegistry())
}

// TenantUsage reports a tenant's current registered sets, logical bytes,
// and active sessions.
func (s *Server) TenantUsage(tenant string) (sets, bytes, sessions int64) {
	return s.sets.TenantUsage(tenant)
}

// Register publishes set under name: it is Host under its older name, with
// Host's rules. Duplicate elements are dropped, not rejected; an empty name
// is rejected; and on a server with hosting enabled the set is persisted
// and can be evicted like any hosted set.
func (s *Server) Register(name string, set []uint64) error { return s.Host(name, set) }

// ErrServerClosed is returned by registration and hosting calls made after
// Close or Shutdown.
var ErrServerClosed = errors.New("pbs: server closed")

// publish charges bytes for hs under name against the tenant's quota. A
// registration inserts hs, or swaps it in for the set the name held and
// returns that set; a recharge only re-charges the entry, and fails as an
// unknown set when the name no longer maps to hs — it was unregistered or
// replaced meanwhile. The closed check rides the same lock Close takes, so
// a registration can never land after Shutdown observed a clean registry.
func (s *Server) publish(name string, hs *hostedSet, bytes int64, recharge bool) (replaced *hostedSet, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrServerClosed
	}
	if recharge {
		var same bool
		if same, err = s.sets.Recharge(name, hs, bytes); err == nil && !same {
			return nil, unknownSet(name)
		}
	} else {
		replaced, _, err = s.sets.Register(name, hs, bytes)
	}
	var qe *registry.QuotaError
	if errors.As(err, &qe) {
		s.quotaRejections.Add(1)
		return nil, fmt.Errorf("%w: %v", ErrQuotaExceeded, err)
	}
	return replaced, err
}

func unknownSet(name string) error { return fmt.Errorf("pbs: unknown set %q", name) }

// Unregister removes a named set from the registry, releasing its quota
// charge; it reports whether the name was registered. Sessions already
// reconciling against the set finish undisturbed, paging it in from its
// segments if it is cold. Those segments stay on disk: the next
// EnableHosting on the DataDir recovers the set, and a later Host of the
// name writes a full segment that prunes them.
func (s *Server) Unregister(name string) bool {
	hs, ok := s.sets.Unregister(name)
	if ok {
		s.hosted.forget(hs, true)
	}
	return ok
}

// rejection is why startSession turned a session away: the client-facing
// diagnostic plus its structured code and retry-after hint. transient
// rejections (shutdown drain, session quota — conditions that clear on
// their own) count as rejected; the rest count as failed sessions.
type rejection struct {
	msg       string
	code      string
	retry     time.Duration
	transient bool
}

// count records the rejection in the server stats.
func (r *rejection) count(s *Server) {
	if r.transient {
		s.rejected.Add(1)
	} else {
		s.failed.Add(1)
	}
}

// startSession resolves name and admits a new responder session. The
// shutdown check and the sessActive increment happen under one lock so
// Shutdown can never sample a clean drain while a session is
// half-admitted; the registry lookup takes only the name's shard read
// lock, and taking the set's view happens outside both (a cold set's view
// pages nothing in; its first delta round does). The returned session
// carries a release hook returning the tenant's session-quota slot; every
// sessActive decrement must pair with runRelease.
func (s *Server) startSession(name string) (*responderSession, *rejection) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, &rejection{msg: "server shutting down", code: ErrCodeBusy, retry: s.opt.retryAfterHint(), transient: true}
	}
	s.sessActive.Add(1)
	s.mu.Unlock()
	hs, ok := s.sets.Get(name)
	if !ok {
		s.sessActive.Add(-1)
		return nil, &rejection{msg: fmt.Sprintf("unknown set %q", name), code: ErrCodeRejected}
	}
	if err := s.sets.BeginSession(name); err != nil {
		s.sessActive.Add(-1)
		s.quotaRejections.Add(1)
		// Session quotas clear as the tenant's other sessions drain, so the
		// rejection is retryable with the standard hint.
		return nil, &rejection{msg: err.Error(), code: ErrCodeQuota, retry: s.opt.retryAfterHint(), transient: true}
	}
	sess := hs.sharedView().newServerSession()
	sess.release = func() { s.sets.EndSession(name) }
	return sess, nil
}

// Stats returns a snapshot of the server counters and session histograms.
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		SetsHosted:      int64(s.sets.Len()),
		QuotaRejections: s.quotaRejections.Load(),
		Active:          s.sessActive.Load(),
		Accepted:        s.accepted.Load(),
		Completed:       s.completed.Load(),
		Failed:          s.failed.Load(),
		Rejected:        s.rejected.Load(),
		Shed:            s.shed.Load(),
		BytesIn:         s.bytesIn.Load(),
		BytesOut:        s.bytesOut.Load(),
		Rounds:          s.rounds.Load(),
		StreamsOpen:     s.streamsOpen.Load(),
		StreamsTotal:    s.streamsTotal.Load(),
		AdaptiveReplans: s.adaptiveReplans.Load(),
		PriorHits:       s.priorHits.Load(),
		LatencyUS:       summarize(s.latencyHist.Snapshot()),
		SessionRounds:   summarize(s.roundsHist.Snapshot()),
		SessionBytes:    summarize(s.bytesHist.Snapshot()),
	}
	if s.hosted != nil {
		st.SetsResident = s.hosted.residentSets.Load()
		st.ResidentBytes = s.hosted.residentBytes.Load()
		st.ColdLoads = s.hosted.coldLoads.Load()
		st.Evictions = s.hosted.evictions.Load()
	}
	if s.store != nil {
		st.SegmentMerges = s.store.Merges()
	}
	return st
}

// Serve accepts connections on ln until the listener fails or the server
// is closed, spawning one frame pump per connection. It returns nil after
// Close.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("pbs: serve on a closed server")
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
	}()
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return nil
			}
			// Transient accept failures (EMFILE under a connection flood,
			// ECONNABORTED) must not turn into a permanent outage: retry
			// with backoff, as net/http does. (Asserted structurally: the
			// net.Error method itself is deprecated as API guidance, but
			// remains exactly the accept-loop signal it was designed for.)
			if ne, ok := err.(interface{ Temporary() bool }); ok && ne.Temporary() {
				if backoff == 0 {
					backoff = 5 * time.Millisecond
				} else if backoff *= 2; backoff > time.Second {
					backoff = time.Second
				}
				// Wake immediately on Close/Shutdown: a plain Sleep here
				// would pin them for up to the full backoff.
				select {
				case <-time.After(backoff):
					continue
				case <-s.drainCh:
					return nil
				}
			}
			return err
		}
		backoff = 0
		setNoDelay(conn)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// markClosed flips the server into its closing state and signals drainCh.
// The caller must hold s.mu.
func (s *Server) markClosed() {
	if !s.closed {
		s.closed = true
		close(s.drainCh)
	}
}

// Close stops accepting and tears down every open connection immediately,
// then writes what the segment store lacks of the hosted sets. For a
// drain-first stop, use Shutdown.
func (s *Server) Close() error {
	s.mu.Lock()
	s.markClosed()
	for ln := range s.listeners {
		ln.Close()
	}
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	var err error
	s.closeHosted.Do(func() {
		if s.hosted != nil {
			err = s.hosted.flushAll()
		}
	})
	return err
}

// Shutdown stops accepting new connections, waits up to timeout for
// in-flight sessions to finish, then closes whatever remains. It reports
// whether the drain completed before the deadline.
func (s *Server) Shutdown(timeout time.Duration) bool {
	s.mu.Lock()
	s.markClosed()
	for ln := range s.listeners {
		ln.Close()
	}
	s.mu.Unlock()
	deadline := time.Now().Add(timeout)
	for s.sessActive.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	drained := s.sessActive.Load() == 0
	s.Close()
	return drained
}

// sendCodedError reports a failure to a raw-framed client as a final
// msgError frame, on a short deadline so a stalled peer cannot pin the
// goroutine. The structured code and optional retry-after hint ride the
// backward-compatible msgError suffix: current clients decode it into a
// *PeerError, legacy clients see (and log) the suffix as part of the plain
// string. The connection may still have unread frames from the client
// (e.g. ones pipelined behind a rejected opening); closing with those
// pending would RST the socket and can destroy the diagnostic before the
// client reads it, so the write side is half-closed and the inbound
// leftovers drained briefly first.
func (s *Server) sendCodedError(conn net.Conn, msg, code string, retryAfter time.Duration) {
	payload := frame.AppendErrCode(msg, code, retryAfter)
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	n, err := frame.WriteAll(conn, oneFrame(frame.MsgError, []byte(payload)))
	if err != nil {
		return
	}
	s.bytesOut.Add(int64(n))
	if cw, ok := conn.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	conn.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
	io.Copy(io.Discard, io.LimitReader(conn, frame.MaxFrame))
}

// sessionError tells the client that the session on stream id was refused
// or failed — the one place the two framings differ on failure. A raw
// connection has nothing but itself to address, so the diagnostic is its
// final frame (sendCodedError) and the connection ends. A mux connection
// envelopes the coded msgError on that stream with the close flag and
// carries on — one hostile or unlucky stream can never wedge its siblings —
// unless the write itself fails. A connection this ends is closed here;
// the connection loop exits when its next read says so.
func (s *Server) sessionError(conn net.Conn, muxed bool, id uint64, msg, code string, retryAfter time.Duration) {
	if !muxed {
		s.sendCodedError(conn, msg, code, retryAfter)
		conn.Close()
		return
	}
	b := frame.Seal(nil, id, frame.FlagClose, frame.MsgError, []byte(frame.AppendErrCode(msg, code, retryAfter)))
	if t := s.opt.idleTimeout(); t > 0 {
		conn.SetWriteDeadline(time.Now().Add(t))
	}
	if _, err := conn.Write(b); err != nil {
		conn.Close()
		return
	}
	s.bytesOut.Add(int64(len(b)))
}

// srvStream is one session's entry in a connection's stream table: its
// session engine plus the budget and accounting state every session is
// limited by, whichever framing carries it.
type srvStream struct {
	sess        *responderSession
	start       time.Time
	bytes       int64
	roundFrames int
	lastActive  time.Time
}

// handle is the connection loop: it pumps frames between one connection
// and the responder sessions in its stream table, enforcing the
// per-session limits. Raw v1 framing is the table's degenerate case —
// at most one stream, implicit, ID 0: after a completed session (the
// initiator's msgDone) the connection stays open and a fresh hello opens
// the next one with its budgets reset, which is how a
// warm client fleet amortizes the dial across many syncs. A granted
// version-2 hello re-files that stream as ID 1 and switches the connection
// to enveloped framing in place; from then on each frame is routed to its
// stream's engine, strictly in arrival order (which round-robins the
// connection fairly), and a step's replies leave in one write per inbound
// frame. Frame payloads are read into one pooled buffer per connection,
// reused across frames, streams and sessions.
func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	cur := s.connCount.Add(1)
	defer s.connCount.Add(-1)
	if max := s.opt.maxSessions(); max > 0 && cur > max {
		// Hard exhaustion: hint a longer retry-after than a watermark shed
		// so the backed-off herd does not return while still saturated.
		s.rejected.Add(1)
		s.sendCodedError(conn, "server at session capacity", ErrCodeBusy, 2*s.opt.retryAfterHint())
		return
	}
	if soft := s.opt.softWatermark(); soft > 0 && cur > soft {
		// Soft admission watermark: shed new connections before the hard
		// cap so warm connections (which reuse their slot for session
		// after session) keep the remaining headroom.
		s.rejected.Add(1)
		s.shed.Add(1)
		s.sendCodedError(conn, "server over session watermark, retry later", ErrCodeBusy, s.opt.retryAfterHint())
		return
	}
	s.accepted.Add(1)

	buf := frame.GetBuf()
	defer frame.PutBuf(buf)

	var (
		streams   = map[uint64]*srvStream{}
		muxed     bool
		lastSweep = time.Now()
	)
	idle, budget := s.opt.idleTimeout(), s.opt.sessionByteBudget()
	// release returns everything stream id's session holds: its tenant
	// slot, its sessActive count and, on a mux connection, its stream slot.
	release := func(id uint64) {
		streams[id].sess.runRelease()
		s.sessActive.Add(-1)
		if muxed {
			s.streamsOpen.Add(-1)
		}
		delete(streams, id)
	}
	// Connection teardown: streams still in the table were mid-session and
	// fail; the clean case (every session completed or closed first) has an
	// empty table and counts nothing.
	defer func() {
		for id := range streams {
			s.failed.Add(1)
			release(id)
		}
	}()
	// failStream ends the session on stream id as Failed: counted, then
	// reported, then released (the stream may not exist yet when its very
	// first frame is at fault).
	failStream := func(id uint64, msg string) {
		s.failed.Add(1)
		s.sessionError(conn, muxed, id, msg, ErrCodeRejected, 0)
		if streams[id] != nil {
			release(id)
		}
	}

	for {
		if idle > 0 {
			conn.SetReadDeadline(time.Now().Add(idle))
		}
		// Opening the inbound frame is framing-specific. Raw: the stream is
		// known before the payload, so frames whose declared size alone
		// would bust the session's remaining byte budget are refused before
		// reading (or holding) any of it. Mux: the envelope names the stream.
		limit := uint32(frame.MaxFrame)
		if !muxed && budget > 0 {
			remain := budget - frame.HeaderLen
			if st := streams[0]; st != nil {
				remain -= st.bytes
			}
			limit = uint32(min(max(remain, 0), frame.MaxFrame))
		}
		typ, body, err := frame.ReadInto(conn, limit, (*buf)[:0])
		if body != nil {
			*buf = body[:0]
		}
		if err != nil {
			// A raw frame rejected on its declared size gets the diagnostic
			// the client can act on; plain transport errors (and, under mux,
			// an oversized frame no stream can be blamed for) do not. A
			// connection that ends between sessions — clean EOF, reset, or
			// idle-deadline expiry alike — is a probe, a dial-and-abort, or a
			// warm client hanging up after its last sync, not a failed
			// session: its table is empty.
			var fle *frame.LimitError
			if !muxed && errors.As(err, &fle) {
				msg := err.Error()
				if limit < frame.MaxFrame {
					msg = "session byte budget exceeded"
				}
				failStream(0, msg)
			}
			return
		}
		n := int64(frame.HeaderLen + len(body))
		s.bytesIn.Add(n)
		var id, flags uint64
		if muxed {
			if id, flags, body, err = frame.Open(body); err != nil {
				// A malformed envelope means framing trust is gone; there is no
				// stream to blame it on, so the connection dies.
				return
			}
		}

		st := streams[id]
		if st == nil {
			if muxed && flags&frame.FlagOpen == 0 {
				if typ == frame.MsgStreamClose || flags&frame.FlagClose != 0 {
					// Close for a stream already gone: a benign race between
					// the client's close and our teardown.
					continue
				}
				// Unknown stream: reject it with a coded error on that ID;
				// the connection and its live streams are unaffected.
				s.rejected.Add(1)
				s.sessionError(conn, muxed, id, fmt.Sprintf("unknown stream %d", id), ErrCodeRejected, 0)
				continue
			}
			if muxed && len(streams) >= s.opt.maxStreams() {
				s.rejected.Add(1)
				s.shed.Add(1)
				s.sessionError(conn, muxed, id, "connection at stream capacity", ErrCodeBusy, s.opt.retryAfterHint())
				continue
			}
			name := DefaultSetName
			if typ == frame.MsgHelloV1 {
				// The hello both names the set and opens the session, so the
				// admission happens here and the frame still reaches the
				// engine. Any other opening is admitted against the default
				// set and left to its engine, which refuses all but a bare
				// msgDone probe.
				h, herr := frame.ParseHello(body)
				if herr != nil {
					failStream(id, herr.Error())
					continue
				}
				if h.Name != "" {
					name = h.Name
				}
			}
			sess, rej := s.startSession(name)
			if sess == nil {
				rej.count(s)
				s.sessionError(conn, muxed, id, rej.msg, rej.code, rej.retry)
				continue
			}
			if muxed {
				s.streamsOpen.Add(1)
				s.streamsTotal.Add(1)
			} else {
				// Only a session opened under raw framing may negotiate the
				// mux upgrade; streams opened inside the envelope never
				// re-negotiate (no mux inside mux).
				sess.allowFeatures = s.opt.allowedFeatures()
			}
			st = &srvStream{sess: sess, start: time.Now()}
			streams[id] = st
		} else if flags&frame.FlagOpen != 0 {
			failStream(id, fmt.Sprintf("duplicate open for stream %d", id))
			continue
		}
		st.lastActive = time.Now()
		st.bytes += n
		if budget > 0 && st.bytes > budget {
			failStream(id, "session byte budget exceeded")
			continue
		}

		if muxed && typ == frame.MsgStreamClose {
			// Client abandoned the stream mid-session (its msgDone rides the
			// close flag on the session's own goodbye instead).
			if st.sess.started() || st.bytes > n {
				s.failed.Add(1)
			}
			release(id)
			continue
		}
		if typ == frame.MsgRound || typ == frame.MsgHelloV1 {
			// A fast hello carries a speculative round, so it spends the
			// round budget like any msgRound.
			st.roundFrames++
			if max := s.opt.sessionMaxRounds(); max > 0 && st.roundFrames > max {
				failStream(id, "session round budget exceeded")
				continue
			}
		}

		out, done, stepErr := st.sess.step(typ, body)
		if len(out) > 0 {
			// The idle deadline covers writes too: a client that stops
			// reading must not pin this goroutine (and its session slots) in
			// a blocked send forever. Sealing is framing-specific, but either
			// way the step's frames go out in one coalesced write.
			if idle > 0 {
				conn.SetWriteDeadline(time.Now().Add(idle))
			}
			var wn int
			var werr error
			if muxed {
				batch := frame.GetBuf()
				b := (*batch)[:0]
				for _, f := range out {
					b = frame.Seal(b, id, 0, f.Type, f.Payload)
				}
				wn, werr = conn.Write(b)
				*batch = b[:0]
				frame.PutBuf(batch)
			} else {
				wn, werr = frame.WriteAll(conn, out)
			}
			if werr != nil {
				// A write error is terminal for the whole connection — a
				// partial frame poisons the framing for every stream, and a
				// diagnostic would only follow it onto the broken socket.
				return
			}
			st.bytes += int64(wn)
			s.bytesOut.Add(int64(wn))
			if budget > 0 && st.bytes > budget {
				failStream(id, "session byte budget exceeded")
				continue
			}
		}
		if stepErr != nil {
			failStream(id, stepErr.Error())
			continue
		}
		if done {
			// Only a session that actually started reconciling (answered
			// an estimate) counts as completed; a probe that sends a bare
			// msgDone must not inflate the success counter.
			if st.sess.started() {
				s.completed.Add(1)
				s.rounds.Add(int64(st.sess.rounds))
				s.adaptiveReplans.Add(int64(st.sess.adaptiveReplans()))
				if st.sess.specAccepted {
					s.priorHits.Add(1)
				}
				hint := uint64(cur)
				s.latencyHist.Record(hint, time.Since(st.start).Microseconds())
				s.roundsHist.Record(hint, int64(st.sess.rounds))
				s.bytesHist.Record(hint, st.bytes)
			}
			// Keep the connection: the next opening frame starts a fresh
			// session under fresh budgets.
			release(id)
		} else if g := st.sess.granted; !muxed && g&frame.FeatureMux != 0 {
			// The hello reply that granted mux just went out raw, and the
			// fast-path initiator sends nothing until it has read it — so
			// the very next inbound frame is already enveloped. The stream
			// keeps its session, its start time and the bytes and rounds
			// already charged; it is only re-filed as stream 1.
			delete(streams, 0)
			streams[1] = st
			muxed = true
			s.streamsOpen.Add(1)
			s.streamsTotal.Add(1)
		}

		if muxed && idle > 0 && time.Since(lastSweep) >= idle/2 {
			// Per-stream idleness: the connection-level read deadline only
			// fires when every stream is silent, so streams that went quiet
			// while siblings stay busy are swept here. (Raw framing has no
			// siblings: the read deadline is the stream's.)
			lastSweep = time.Now()
			for sid, sst := range streams {
				if time.Since(sst.lastActive) > idle {
					failStream(sid, "stream idle timeout")
				}
			}
		}
	}
}
