// Package chaos wraps net.Conn / net.Listener with deterministic, seeded
// fault injection: per-direction latency and jitter, bandwidth caps,
// partial writes, mid-frame disconnects, byte corruption, stalls, and
// abrupt connection resets. Faults are decided per protocol frame — the
// wrapper follows the pbs frame headers (decoded by internal/frame) as
// bytes stream through, regardless of how reads and writes segment them —
// so a fault schedule can land a failure at an exact
// protocol phase, and a whole fleet run replays byte-identically from its
// seed.
//
// The package is the fault layer behind the chaos soak: tests wrap
// net.Pipe ends, internal/load wraps each worker connection, and
// pbs-loadgen exposes it as -chaos. It deliberately knows nothing about
// pbs beyond where one frame ends and the next begins.
package chaos

import (
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	pbsframe "pbs/internal/frame"
)

// Kind is an injected fault class.
type Kind int

const (
	// Drop closes the connection mid-frame: the header and a seeded
	// prefix of the payload go out, then the transport dies.
	Drop Kind = iota
	// Reset aborts the connection at a frame boundary — with SO_LINGER(0)
	// on TCP, so the peer sees an RST instead of a clean FIN.
	Reset
	// Corrupt flips one seeded payload byte of the frame.
	Corrupt
	// Stall pauses the stream for Config.Stall before the frame proceeds.
	Stall
)

func (k Kind) String() string {
	switch k {
	case Drop:
		return "drop"
	case Reset:
		return "reset"
	case Corrupt:
		return "corrupt"
	case Stall:
		return "stall"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Direction distinguishes faults on bytes this side sends from faults on
// bytes it receives.
type Direction int

const (
	Send Direction = iota
	Recv
)

func (d Direction) String() string {
	if d == Send {
		return "send"
	}
	return "recv"
}

// Fault pins one fault to an exact frame index in one direction — how a
// test lands a disconnect at a chosen protocol phase. Frames are counted
// per direction from 0 as they start crossing the wrapper.
type Fault struct {
	Frame int
	Dir   Direction
	Kind  Kind
}

// Event reports one injected fault to Config.OnFault.
type Event struct {
	ConnID uint64
	Dir    Direction
	Kind   Kind
	Frame  int
}

// Config parameterizes the injection. The zero value injects nothing
// (Enabled reports false) and Wrap of it is a transparent pass-through.
//
// The per-frame probabilities are evaluated once at each frame start,
// independently per direction, from the connection's seeded stream; their
// sum must not exceed 1.
type Config struct {
	// Seed derives every random decision. Two connections wrapped with the
	// same Seed and id replay identical faults for identical byte streams.
	Seed int64

	// Shaping. Latency (+ a uniform [0,Jitter) draw) is added per
	// Write/Read call in the respective direction; BandwidthBPS caps
	// outbound throughput; MaxWriteChunk splits writes into partial writes
	// of at most this many bytes (0 = unsplit).
	SendLatency   time.Duration
	SendJitter    time.Duration
	RecvLatency   time.Duration
	RecvJitter    time.Duration
	BandwidthBPS  int64
	MaxWriteChunk int

	// Per-frame fault probabilities.
	DropProb    float64
	ResetProb   float64
	CorruptProb float64
	StallProb   float64
	// Stall is the pause a Stall fault injects (default 200ms).
	Stall time.Duration

	// Schedule forces faults at exact frame indices, on top of (and
	// checked before) the probabilistic draws.
	Schedule []Fault

	// OnFault, when set, observes every injected fault. It may be called
	// from the connection's read and write paths concurrently.
	OnFault func(Event)
}

// Enabled reports whether the configuration injects or shapes anything.
func (c Config) Enabled() bool {
	return c.DropProb > 0 || c.ResetProb > 0 || c.CorruptProb > 0 || c.StallProb > 0 ||
		c.SendLatency > 0 || c.SendJitter > 0 || c.RecvLatency > 0 || c.RecvJitter > 0 ||
		c.BandwidthBPS > 0 || c.MaxWriteChunk > 0 || len(c.Schedule) > 0
}

// Validate checks the fault probabilities for range errors; Wrap assumes
// a valid configuration, so callers assembling a Config by hand (rather
// than through ParseSpec or NewListener, which validate) should call it.
func (c Config) Validate() error { return c.validate() }

func (c Config) validate() error {
	for _, p := range []float64{c.DropProb, c.ResetProb, c.CorruptProb, c.StallProb} {
		if p < 0 || p > 1 {
			return fmt.Errorf("chaos: probability %v outside [0,1]", p)
		}
	}
	if sum := c.DropProb + c.ResetProb + c.CorruptProb + c.StallProb; sum > 1 {
		return fmt.Errorf("chaos: fault probabilities sum to %v > 1", sum)
	}
	return nil
}

func (c Config) stall() time.Duration {
	if c.Stall <= 0 {
		return 200 * time.Millisecond
	}
	return c.Stall
}

// InjectedError is the error a Conn returns after it injected a Drop or
// Reset (and for every operation thereafter). It implements net.Error with
// Temporary() true, so retry classifiers treat it like the transport
// failure it simulates.
type InjectedError struct{ Kind Kind }

func (e *InjectedError) Error() string   { return "chaos: injected connection " + e.Kind.String() }
func (e *InjectedError) Timeout() bool   { return false }
func (e *InjectedError) Temporary() bool { return true }

const corruptMask = 0xA5

// dirState tracks one direction's position in the frame stream and the
// fault chosen for the frame currently crossing. It is only touched from
// that direction's Read or Write path (net.Conn's usual one-reader
// one-writer discipline), so it needs no lock.
type dirState struct {
	rng *rand.Rand

	hdr      [pbsframe.HeaderLen]byte
	hdrN     int
	total    int // payload length of the current frame
	consumed int // payload bytes already passed through
	inFrame  bool
	idx      int // index of the current frame; -1 before the first

	hasFault  bool
	kind      Kind
	corruptAt int // payload offset to flip
	dropAfter int // payload bytes to pass before dying
}

// Conn is a fault-injecting net.Conn wrapper. Wrap builds one.
type Conn struct {
	net.Conn
	cfg Config
	id  uint64

	closedCh  chan struct{}
	closeOnce sync.Once
	abortErr  atomic.Pointer[InjectedError]

	send, recv dirState
	scratch    []byte // write-path copy, so corruption never mutates caller buffers
}

// Wrap returns conn with cfg's faults injected. id distinguishes
// connections sharing one Config: each (Seed, id) pair draws an
// independent, reproducible fault stream.
func Wrap(conn net.Conn, cfg Config, id uint64) *Conn {
	base := cfg.Seed ^ int64(id*0x9E3779B97F4A7C15)
	return &Conn{
		Conn:     conn,
		cfg:      cfg,
		id:       id,
		closedCh: make(chan struct{}),
		send:     dirState{rng: rand.New(rand.NewSource(base)), idx: -1},
		recv:     dirState{rng: rand.New(rand.NewSource(base ^ 0x6A09E667F3BCC909)), idx: -1},
	}
}

func (c *Conn) emit(dir Direction, kind Kind, frame int) {
	if c.cfg.OnFault != nil {
		c.cfg.OnFault(Event{ConnID: c.id, Dir: dir, Kind: kind, Frame: frame})
	}
}

// abort records the injected death, closes the transport (with an RST for
// resets where the transport supports lingering), and returns the error
// every subsequent operation will see.
func (c *Conn) abort(kind Kind) error {
	e := &InjectedError{Kind: kind}
	if c.abortErr.CompareAndSwap(nil, e) {
		if kind == Reset {
			if tc, ok := c.Conn.(*net.TCPConn); ok {
				tc.SetLinger(0)
			}
		}
		c.closeOnce.Do(func() { close(c.closedCh) })
		c.Conn.Close()
	}
	return c.abortErr.Load()
}

// sleep pauses for d, interruptibly: closing the connection wakes it.
func (c *Conn) sleep(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-c.closedCh:
		if e := c.abortErr.Load(); e != nil {
			return e
		}
		return net.ErrClosed
	}
}

func latency(rng *rand.Rand, base, jitter time.Duration) time.Duration {
	d := base
	if jitter > 0 {
		d += time.Duration(rng.Int63n(int64(jitter)))
	}
	return d
}

// decide draws the fault for a newly started frame: the schedule first,
// then one uniform draw against the cumulative probabilities.
func (d *dirState) decide(cfg *Config, dir Direction) {
	d.idx++
	d.hasFault = false
	for _, f := range cfg.Schedule {
		if f.Frame == d.idx && f.Dir == dir {
			d.hasFault, d.kind = true, f.Kind
			return
		}
	}
	p := d.rng.Float64()
	cum := cfg.DropProb
	switch {
	case p < cum:
		d.hasFault, d.kind = true, Drop
	case p < cum+cfg.ResetProb:
		d.hasFault, d.kind = true, Reset
	case p < cum+cfg.ResetProb+cfg.CorruptProb:
		d.hasFault, d.kind = true, Corrupt
	case p < cum+cfg.ResetProb+cfg.CorruptProb+cfg.StallProb:
		d.hasFault, d.kind = true, Stall
	}
}

// resolve pins the fault's byte position once the frame length is known.
func (d *dirState) resolve() {
	if !d.hasFault {
		return
	}
	switch d.kind {
	case Corrupt:
		if d.total == 0 {
			d.hasFault = false
			return
		}
		d.corruptAt = d.rng.Intn(d.total)
	case Drop:
		d.dropAfter = d.rng.Intn(d.total + 1)
	}
}

func (d *dirState) finishFrame() {
	d.hdrN, d.inFrame, d.hasFault = 0, false, false
}

// inject walks b — the next run of stream bytes in direction dir —
// through the frame tracker, mutating it for corruption and sleeping for
// stalls. It returns how many bytes of b remain usable and, when the
// frame's fault kills the connection, the Kind to abort with after those
// bytes have been flushed (die=true). err is non-nil only when an
// interrupted stall ends the operation.
func (c *Conn) inject(d *dirState, dir Direction, b []byte) (keep int, die bool, kind Kind, err error) {
	i := 0
	for i < len(b) {
		if !d.inFrame {
			if d.hdrN == 0 {
				d.decide(&c.cfg, dir)
				if d.hasFault {
					switch d.kind {
					case Reset:
						c.emit(dir, Reset, d.idx)
						return i, true, Reset, nil
					case Stall:
						c.emit(dir, Stall, d.idx)
						if err := c.sleep(c.cfg.stall()); err != nil {
							return i, false, 0, err
						}
						d.hasFault = false
					}
				}
			}
			n := min(pbsframe.HeaderLen-d.hdrN, len(b)-i)
			copy(d.hdr[d.hdrN:], b[i:i+n])
			d.hdrN += n
			i += n
			if d.hdrN < pbsframe.HeaderLen {
				return i, false, 0, nil // header split across calls; wait for the rest
			}
			total, _ := pbsframe.ParseHeader(d.hdr[:])
			d.total = int(total)
			d.consumed = 0
			d.inFrame = true
			d.resolve()
			if d.hasFault && d.kind == Drop && d.dropAfter == 0 {
				c.emit(dir, Drop, d.idx)
				return i, true, Drop, nil
			}
			if d.total == 0 {
				d.finishFrame()
			}
			continue
		}
		n := min(d.total-d.consumed, len(b)-i)
		if d.hasFault && d.kind == Corrupt &&
			d.corruptAt >= d.consumed && d.corruptAt < d.consumed+n {
			b[i+(d.corruptAt-d.consumed)] ^= corruptMask
			c.emit(dir, Corrupt, d.idx)
			d.hasFault = false
		}
		if d.hasFault && d.kind == Drop && d.dropAfter < d.consumed+n {
			c.emit(dir, Drop, d.idx)
			return i + (d.dropAfter - d.consumed), true, Drop, nil
		}
		d.consumed += n
		i += n
		if d.consumed == d.total {
			d.finishFrame()
		}
	}
	return i, false, 0, nil
}

func (c *Conn) Write(p []byte) (int, error) {
	if e := c.abortErr.Load(); e != nil {
		return 0, e
	}
	if d := latency(c.send.rng, c.cfg.SendLatency, c.cfg.SendJitter); d > 0 {
		if err := c.sleep(d); err != nil {
			return 0, err
		}
	}
	b := p
	if c.cfg.CorruptProb > 0 || len(c.cfg.Schedule) > 0 {
		// Corruption must never scribble on the caller's buffer.
		c.scratch = append(c.scratch[:0], p...)
		b = c.scratch
	}
	keep, die, kind, err := c.inject(&c.send, Send, b)
	if err != nil {
		return 0, err
	}
	wrote := 0
	for wrote < keep {
		n := keep - wrote
		if c.cfg.MaxWriteChunk > 0 && n > c.cfg.MaxWriteChunk {
			n = c.cfg.MaxWriteChunk
		}
		m, werr := c.Conn.Write(b[wrote : wrote+n])
		wrote += m
		if werr != nil {
			return wrote, werr
		}
		if bps := c.cfg.BandwidthBPS; bps > 0 && m > 0 {
			if serr := c.sleep(time.Duration(float64(m) / float64(bps) * float64(time.Second))); serr != nil {
				return wrote, serr
			}
		}
	}
	if die {
		return wrote, c.abort(kind)
	}
	return len(p), nil
}

func (c *Conn) Read(p []byte) (int, error) {
	if e := c.abortErr.Load(); e != nil {
		return 0, e
	}
	if d := latency(c.recv.rng, c.cfg.RecvLatency, c.cfg.RecvJitter); d > 0 {
		if err := c.sleep(d); err != nil {
			return 0, err
		}
	}
	n, err := c.Conn.Read(p)
	if n > 0 {
		keep, die, kind, ierr := c.inject(&c.recv, Recv, p[:n])
		if ierr != nil {
			return keep, ierr
		}
		if die {
			return keep, c.abort(kind)
		}
	}
	return n, err
}

// Close closes the wrapper and the underlying connection, waking any
// injected sleep in flight.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { close(c.closedCh) })
	return c.Conn.Close()
}

// CloseWrite half-closes the underlying connection when it supports it
// (the pbs server's msgError path uses this), and is a no-op otherwise.
func (c *Conn) CloseWrite() error {
	if cw, ok := c.Conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return nil
}

// Listener wraps every accepted connection with cfg, assigning sequential
// connection ids so each accept draws an independent, reproducible fault
// stream.
type Listener struct {
	net.Listener
	cfg    Config
	nextID atomic.Uint64
}

// NewListener wraps ln. The Config is validated here so a bad spec fails
// at setup, not mid-run.
func NewListener(ln net.Listener, cfg Config) (*Listener, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Listener{Listener: ln, cfg: cfg}, nil
}

func (l *Listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return Wrap(conn, l.cfg, l.nextID.Add(1)), nil
}

// ParseSpec parses the compact command-line fault spec pbs-loadgen's
// -chaos flag takes: comma-separated key=value pairs, e.g.
//
//	drop=0.02,reset=0.01,corrupt=0.005,stall=0.05,stall-ms=200,latency-ms=1,jitter-ms=2,bw=1000000,chunk=512,seed=7
//
// drop/reset/corrupt/stall are per-frame probabilities in [0,1];
// stall-ms the stall length; latency-ms and jitter-ms apply to both
// directions; bw caps outbound bytes/s; chunk forces partial writes; seed
// overrides the fault seed.
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	if strings.TrimSpace(spec) == "" {
		return cfg, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return Config{}, fmt.Errorf("chaos: bad spec entry %q (want key=value)", kv)
		}
		switch k {
		case "drop", "reset", "corrupt", "stall":
			p, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return Config{}, fmt.Errorf("chaos: bad %s=%q: %v", k, v, err)
			}
			switch k {
			case "drop":
				cfg.DropProb = p
			case "reset":
				cfg.ResetProb = p
			case "corrupt":
				cfg.CorruptProb = p
			case "stall":
				cfg.StallProb = p
			}
		case "stall-ms", "latency-ms", "jitter-ms":
			ms, err := strconv.ParseInt(v, 10, 64)
			if err != nil || ms < 0 {
				return Config{}, fmt.Errorf("chaos: bad %s=%q", k, v)
			}
			d := time.Duration(ms) * time.Millisecond
			switch k {
			case "stall-ms":
				cfg.Stall = d
			case "latency-ms":
				cfg.SendLatency, cfg.RecvLatency = d, d
			case "jitter-ms":
				cfg.SendJitter, cfg.RecvJitter = d, d
			}
		case "bw":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 0 {
				return Config{}, fmt.Errorf("chaos: bad bw=%q", v)
			}
			cfg.BandwidthBPS = n
		case "chunk":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return Config{}, fmt.Errorf("chaos: bad chunk=%q", v)
			}
			cfg.MaxWriteChunk = n
		case "seed":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return Config{}, fmt.Errorf("chaos: bad seed=%q", v)
			}
			cfg.Seed = n
		default:
			return Config{}, fmt.Errorf("chaos: unknown spec key %q", k)
		}
	}
	if err := cfg.validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}
