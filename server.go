package pbs

import (
	"context"
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
)

// Server answers reconciliation sessions concurrently over TCP (or any
// net.Listener). Every session drives a responderSession against the
// current immutable view of a hosted set from the server's registry, so N
// concurrent sessions share one validated snapshot of each set — one ToW
// sketch, one strong-verification digest, one group partition per plan
// size — instead of N private copies.
//
// A client opens a session with one msgHelloV1 frame naming the set (an
// empty name selects DefaultSetName); the rest is the standard wire
// protocol (internal/frame), so a Set.Sync initiator talks to a Server
// unchanged. A connection carries sessions one after another, each
// under fresh limits, so a warm client amortizes the dial across many
// syncs; a version-2 hello may instead negotiate stream multiplexing
// (mux.go), one session per stream. On top of the engine's own hardening
// (Options.MaxD), connections are capped and every session has an idle
// deadline, a byte budget and a round budget. A violation is reported as a
// coded msgError — the connection's final frame raw, the stream's under
// mux — and counted in the server stats.
type Server struct {
	opt ServerOptions

	// sets is the sharded set registry: striped by name hash so lookups on
	// the session hot path take only one shard's read lock, with per-tenant
	// ("tenant/name") quota accounting layered on top.
	sets *registry.Registry[*hostedSet]
	// hosted manages the registered sets and their protocol options (nil,
	// with hostedErr, when those are invalid; see hosted.go).
	hosted      *hostedStore
	hostedErr   error
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

// orDefault resolves a limit option: zero selects def, and any other value
// stands (a negative one meaning "none" where the option allows it).
func orDefault[T int | int64 | time.Duration](v, def T) T {
	if v == 0 {
		return def
	}
	return v
}

func (o ServerOptions) maxSessions() int64 {
	return int64(orDefault(o.MaxSessions, DefaultMaxSessions))
}

func (o ServerOptions) idleTimeout() time.Duration {
	return orDefault(o.IdleTimeout, DefaultIdleTimeout)
}

func (o ServerOptions) sessionByteBudget() int64 {
	return orDefault(o.SessionByteBudget, DefaultSessionByteBudget)
}

func (o ServerOptions) sessionMaxRounds() int {
	return orDefault(o.SessionMaxRounds, DefaultSessionMaxRounds)
}

func (o ServerOptions) retryAfterHint() time.Duration {
	return max(orDefault(o.RetryAfterHint, DefaultRetryAfterHint), 0)
}

func (o ServerOptions) maxStreams() int {
	return max(orDefault(o.MaxStreams, DefaultMaxStreams), 0)
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

// allowedFeatures is the feature bitmap a raw server session may grant to a
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
// name writes a full segment that prunes them. Unregister returns once the
// set's segment write in flight, if any, has landed.
func (s *Server) Unregister(name string) bool {
	hs, ok := s.sets.Get(name)
	if ok {
		s.retire(hs)
		s.sets.Unregister(name, hs) // unless a Host replaced it meanwhile
	}
	return ok
}

// retire drops hs, which is leaving the registry, and waits out its write
// in flight: the writes of a name land in registry order, each set's
// before the next one's.
func (s *Server) retire(hs *hostedSet) {
	if w := hs.drop(); w != nil {
		s.hosted.writes.wait(w)
	}
}

// rejection is a session failure as the server reports it: the
// client-facing diagnostic plus its structured code and retry-after hint.
// transient rejections (shutdown drain, session quota — conditions that
// clear on their own) count as rejected; the rest count as failed sessions.
type rejection struct {
	msg       string
	code      string
	retry     time.Duration
	transient bool
}

func (r *rejection) Error() string { return r.msg }

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
		if s.hosted.store != nil {
			st.SegmentMerges = s.hosted.store.Merges()
		}
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
		// Go defaults TCP_NODELAY on, but the single-RTT hello depends on
		// it, so every accepted connection sets it explicitly.
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
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
// leftovers drained briefly first. The caller closes the connection.
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

// handle serves one connection: admission (the connection cap and the soft
// watermark), then its sessions in turn, each a servedSession run by
// pumpSession over the connection's one framePump. A completed session
// leaves the connection open for the next hello, under fresh budgets: a
// warm client amortizes the dial across many syncs. A raw session's failure
// is the connection's final frame. A hello that grants mux hands its
// still-open session to demux as stream 1.
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

	p, stop := newFramePump(context.Background(), conn, s.opt.idleTimeout())
	defer stop()
	p.in, p.out = &s.bytesIn, &s.bytesOut
	w := new(servedSession)
	report := func(err error) {
		r := w.fail(err)
		s.sendCodedError(conn, r.msg, r.code, r.retry)
		w.end(false)
	}
	for {
		*w = servedSession{srv: s, hint: uint64(cur)}
		if err := pumpSession(p, w, nil, report); err != nil {
			// A session cut off mid-way fails. A connection that ends
			// between sessions (a probe, or a warm client hanging up after
			// its last sync) counts nothing.
			w.end(true)
			return
		}
		if w.live {
			s.demux(conn, p, w)
			return
		}
	}
}

// demux serves a connection whose hello granted mux. Each enveloped frame
// goes to the servedSession of the stream it names, strictly in arrival
// order (which round-robins the connection fairly), and a step's replies
// leave sealed in one write. The negotiating session goes on as stream 1,
// keeping the bytes and rounds it was charged raw. A stream's failure is a
// msgError sealed on it under the close flag, and the connection carries
// on — one hostile stream cannot wedge its siblings — unless a write fails.
func (s *Server) demux(conn net.Conn, p *framePump, first *servedSession) {
	first.envelope, first.lastActive = int64(frame.EnvelopeLen(1)), time.Now()
	streams := map[uint64]*servedSession{1: first}
	s.streamsOpen.Add(1)
	s.streamsTotal.Add(1)
	end := func(id uint64, failed bool) {
		streams[id].end(failed)
		s.streamsOpen.Add(-1)
		delete(streams, id)
	}
	defer func() {
		for id := range streams {
			end(id, true)
		}
	}()
	send := func(id uint64, r *rejection) {
		if p.write(frame.Seal(nil, id, frame.FlagClose, frame.MsgError, []byte(frame.AppendErrCode(r.msg, r.code, r.retry)))) != nil {
			conn.Close() // the next read ends the loop
		}
	}
	fail := func(id uint64, w *servedSession, err error) {
		send(id, w.fail(err))
		if streams[id] == w {
			end(id, false)
		}
	}
	idle, lastSweep := s.opt.idleTimeout(), time.Now()
	for {
		typ, body, err := p.readFrame(frame.MaxFrame)
		if err != nil {
			return
		}
		id, flags, payload, err := frame.Open(body)
		if err != nil {
			return // framing trust is gone, with no stream to blame
		}
		w := streams[id]
		switch {
		case w != nil && flags&frame.FlagOpen != 0:
			fail(id, w, fmt.Errorf("duplicate open for stream %d", id))
			continue
		case w == nil && flags&frame.FlagOpen == 0:
			// A close for a stream already gone is a benign race with our
			// teardown; any other frame there is refused on that ID.
			if typ != frame.MsgStreamClose && flags&frame.FlagClose == 0 {
				s.rejected.Add(1)
				send(id, &rejection{msg: fmt.Sprintf("unknown stream %d", id), code: ErrCodeRejected})
			}
			continue
		case w == nil && len(streams) >= s.opt.maxStreams():
			s.rejected.Add(1)
			s.shed.Add(1)
			send(id, &rejection{msg: "connection at stream capacity", code: ErrCodeBusy, retry: s.opt.retryAfterHint()})
			continue
		case w == nil:
			w = &servedSession{srv: s, hint: first.hint, envelope: int64(frame.EnvelopeLen(id))}
		}
		w.lastActive = time.Now()
		out, done, err := w.step(typ, payload)
		if streams[id] == nil && w.sess != nil {
			streams[id] = w
			s.streamsOpen.Add(1)
			s.streamsTotal.Add(1)
		}
		if len(out) > 0 {
			batch := frame.GetBuf()
			b := (*batch)[:0]
			for _, f := range out {
				b = frame.Seal(b, id, 0, f.Type, f.Payload)
			}
			werr := p.write(b)
			*batch = b[:0]
			frame.PutBuf(batch)
			if werr != nil {
				// A partial frame poisons the framing for every stream.
				return
			}
		}
		if err != nil {
			fail(id, w, err)
		} else if done {
			end(id, false)
		}

		if idle > 0 && time.Since(lastSweep) >= idle/2 {
			// The read deadline fires only when every stream is silent, so
			// streams that went quiet beside busy siblings are swept here.
			lastSweep = time.Now()
			for sid, sw := range streams {
				if time.Since(sw.lastActive) > idle {
					fail(sid, sw, errors.New("stream idle timeout"))
				}
			}
		}
	}
}

var (
	errByteBudget  = &rejection{msg: "session byte budget exceeded", code: ErrCodeRejected}
	errRoundBudget = &rejection{msg: "session round budget exceeded", code: ErrCodeRejected}
)

// servedSession is the Server's policy around one responder session,
// whichever framing carries it: admission on the first frame, the byte
// budget on every frame both ways, the round budget, the completion
// accounting and the release. pumpSession drives it on a raw connection and
// demux steps it as a stream. A frame is charged its wire size: header and
// payload raw, plus the envelope on a stream.
type servedSession struct {
	srv        *Server
	hint       uint64            // histogram stripe: the connection count at admission
	envelope   int64             // frame.EnvelopeLen of its stream; 0 raw
	sess       *responderSession // nil until the first frame admits it
	name       string            // the set it reconciles against
	live       bool              // admitted and not yet released
	start      time.Time
	lastActive time.Time // its last frame, for demux's idle sweep
	bytes      int64
	rounds     int // msgRound and msgHelloV1 frames
}

// frameLimit caps a raw session's next frame at its byte budget's
// remainder, so a frame declared too large is refused before any of it is
// read or held.
func (w *servedSession) frameLimit() uint32 {
	budget := w.srv.opt.sessionByteBudget()
	if budget <= 0 {
		return frame.MaxFrame
	}
	return uint32(min(max(budget-frame.HeaderLen-w.bytes, 0), frame.MaxFrame))
}

// charge adds one frame to the session's bytes and reports whether that
// busts its budget.
func (w *servedSession) charge(payload []byte) (over bool) {
	w.bytes += frame.HeaderLen + w.envelope + int64(len(payload))
	budget := w.srv.opt.sessionByteBudget()
	return budget > 0 && w.bytes > budget
}

// admit resolves name and opens the session, or returns the *rejection
// that turned it away. The shutdown check and the sessActive increment
// happen under one lock so Shutdown can never sample a clean drain while a
// session is half-admitted; the registry lookup takes only the name's
// shard read lock, and taking the set's view happens outside both (a cold
// set's view pages nothing in; its first delta round does). What admission
// takes — the sessActive count and the tenant's session slot — end returns.
func (w *servedSession) admit(name string) error {
	s := w.srv
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return &rejection{msg: "server shutting down", code: ErrCodeBusy, retry: s.opt.retryAfterHint(), transient: true}
	}
	s.sessActive.Add(1)
	s.mu.Unlock()
	hs, ok := s.sets.Get(name)
	if !ok {
		s.sessActive.Add(-1)
		return &rejection{msg: fmt.Sprintf("unknown set %q", name), code: ErrCodeRejected}
	}
	if err := s.sets.BeginSession(name); err != nil {
		s.sessActive.Add(-1)
		s.quotaRejections.Add(1)
		// Session quotas clear as the tenant's other sessions drain, so the
		// rejection is retryable with the standard hint.
		return &rejection{msg: err.Error(), code: ErrCodeQuota, retry: s.opt.retryAfterHint(), transient: true}
	}
	w.sess, w.name, w.live, w.start = hs.sharedView().newServerSession(), name, true, time.Now()
	return nil
}

// step admits the session on its first frame, charges and limits every
// frame, and steps the engine. It is done when the session completed, when
// a mux client abandoned its stream, and when a raw hello reply granted
// mux: the framing changes under the still-open session.
func (w *servedSession) step(typ byte, payload []byte) ([]frame.Frame, bool, error) {
	var h frame.Hello
	opening := w.sess == nil
	if opening {
		// A hello names the set, so it is parsed here, once, and answered as
		// parsed. Any other opening is admitted against the default set and
		// left to the engine, which refuses all but a bare msgDone probe.
		name := DefaultSetName
		if typ == frame.MsgHelloV1 {
			var err error
			if h, err = frame.ParseHello(payload); err != nil {
				return nil, false, err
			}
			if h.Name != "" {
				name = h.Name
			}
		}
		if err := w.admit(name); err != nil {
			return nil, false, err
		}
		if w.envelope == 0 {
			// Only a raw session may negotiate mux: no mux inside mux.
			w.sess.allowFeatures = w.srv.opt.allowedFeatures()
		}
	}
	before := w.bytes
	if w.charge(payload) {
		return nil, false, errByteBudget
	}
	if typ == frame.MsgStreamClose && w.envelope > 0 {
		// The client abandoned the stream (a finished session's msgDone
		// rides the close flag instead).
		w.end(w.sess.started() || before > 0)
		return nil, true, nil
	}
	if typ == frame.MsgRound || typ == frame.MsgHelloV1 {
		// A fast hello carries a speculative round, so it spends the round
		// budget like any msgRound.
		w.rounds++
		if max := w.srv.opt.sessionMaxRounds(); max > 0 && w.rounds > max {
			return nil, false, errRoundBudget
		}
	}
	var out []frame.Frame
	var done bool
	var err error
	if opening && typ == frame.MsgHelloV1 {
		out, done, err = w.sess.hello(h)
	} else {
		out, done, err = w.sess.step(typ, payload)
	}
	over := false
	for _, f := range out {
		over = w.charge(f.Payload)
	}
	switch {
	case err != nil:
		return out, false, err
	case over:
		return out, false, errByteBudget // the replies go out, then the failure
	case done:
		w.complete()
		return out, true, nil
	}
	// A granted mux applies from the next frame: the initiator sends nothing
	// until it has read this reply.
	return out, w.envelope == 0 && w.sess.granted&frame.FeatureMux != 0, nil
}

// complete accounts a session the initiator closed with msgDone and ends
// it. Only a session that began reconciling counts: a bare msgDone probe
// must not inflate the success counter.
func (w *servedSession) complete() {
	if s, sess := w.srv, w.sess; sess.started() {
		s.completed.Add(1)
		s.rounds.Add(int64(sess.rounds))
		s.adaptiveReplans.Add(int64(sess.adaptiveReplans()))
		if sess.specAccepted {
			s.priorHits.Add(1)
		}
		s.latencyHist.Record(w.hint, time.Since(w.start).Microseconds())
		s.roundsHist.Record(w.hint, int64(sess.rounds))
		s.bytesHist.Record(w.hint, w.bytes)
	}
	w.end(false)
}

// fail counts the session's failure on err and returns the diagnostic to
// report: a rejection as itself, a frame refused on the budget's remainder
// as the byte budget, any other error coded rejected. The caller reports
// it, then ends the session.
func (w *servedSession) fail(err error) *rejection {
	r, ok := err.(*rejection)
	var fle *frame.LimitError
	switch {
	case ok:
	case errors.As(err, &fle) && w.frameLimit() < frame.MaxFrame:
		r = errByteBudget
	default:
		r = &rejection{msg: err.Error(), code: ErrCodeRejected}
	}
	if r.transient {
		w.srv.rejected.Add(1)
	} else {
		w.srv.failed.Add(1)
	}
	return r
}

// end releases, once, what admission took — the tenant's session slot and
// the sessActive count — counting the session failed if asked.
func (w *servedSession) end(failed bool) {
	if !w.live {
		return
	}
	if failed {
		w.srv.failed.Add(1)
	}
	w.live = false
	w.srv.sets.EndSession(w.name)
	w.srv.sessActive.Add(-1)
}
