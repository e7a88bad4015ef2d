package chaos

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// frame serializes one pbs wire frame (4-byte BE length + type + payload).
func frame(typ byte, payload []byte) []byte {
	b := make([]byte, 5+len(payload))
	binary.BigEndian.PutUint32(b[:4], uint32(len(payload)))
	b[4] = typ
	copy(b[5:], payload)
	return b
}

// sendAll writes b through conn in chunks of chunk bytes (0 = one write),
// exercising arbitrary segmentation against the frame tracker.
func sendAll(t *testing.T, conn net.Conn, b []byte, chunk int) error {
	t.Helper()
	if chunk <= 0 {
		chunk = len(b)
	}
	for i := 0; i < len(b); i += chunk {
		end := min(i+chunk, len(b))
		if _, err := conn.Write(b[i:end]); err != nil {
			return err
		}
	}
	return nil
}

// collect drains one pipe end until EOF/error and returns what arrived.
func collect(conn net.Conn) <-chan []byte {
	ch := make(chan []byte, 1)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, conn)
		conn.Close()
		ch <- buf.Bytes()
	}()
	return ch
}

func TestPassThroughWhenDisabled(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	w := Wrap(a, Config{}, 1)
	got := collect(b)
	msg := append(frame(1, []byte("hello")), frame(2, nil)...)
	if err := sendAll(t, w, msg, 3); err != nil {
		t.Fatalf("write: %v", err)
	}
	w.Close()
	if out := <-got; !bytes.Equal(out, msg) {
		t.Fatalf("stream altered with zero config: got %x want %x", out, msg)
	}
}

func TestScheduledDropIsMidFrame(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	var events []Event
	cfg := Config{
		Seed:     7,
		Schedule: []Fault{{Frame: 1, Dir: Send, Kind: Drop}},
		OnFault:  func(ev Event) { events = append(events, ev) },
	}
	w := Wrap(a, cfg, 1)
	got := collect(b)
	f0 := frame(1, []byte("first frame"))
	f1 := frame(2, bytes.Repeat([]byte{0xEE}, 64))
	err := sendAll(t, w, append(append([]byte{}, f0...), f1...), 7)
	if err == nil {
		t.Fatalf("scheduled drop did not error")
	}
	var ie *InjectedError
	if !errors.As(err, &ie) || ie.Kind != Drop {
		t.Fatalf("want InjectedError{Drop}, got %v", err)
	}
	var ne net.Error
	if !errors.As(err, &ne) {
		t.Fatalf("InjectedError must implement net.Error")
	}
	out := <-got
	if !bytes.HasPrefix(out, f0) {
		t.Fatalf("frame 0 did not arrive intact before the drop")
	}
	if cut := len(out) - len(f0); cut >= len(f1) {
		t.Fatalf("frame 1 arrived whole (%d bytes) despite the drop", cut)
	}
	if len(events) != 1 || events[0].Frame != 1 || events[0].Kind != Drop || events[0].Dir != Send {
		t.Fatalf("unexpected events %+v", events)
	}
	// The connection stays dead.
	if _, err := w.Write([]byte{0}); err == nil {
		t.Fatalf("write after injected drop succeeded")
	}
}

func TestCorruptFlipsExactlyOneByte(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	cfg := Config{Seed: 3, Schedule: []Fault{{Frame: 0, Dir: Send, Kind: Corrupt}}}
	w := Wrap(a, cfg, 1)
	got := collect(b)
	payload := bytes.Repeat([]byte{0x11}, 100)
	orig := frame(9, payload)
	sent := append([]byte{}, orig...)
	if err := sendAll(t, w, sent, 13); err != nil {
		t.Fatalf("write: %v", err)
	}
	w.Close()
	if !bytes.Equal(sent, orig) {
		t.Fatalf("corruption mutated the caller's buffer")
	}
	out := <-got
	if len(out) != len(orig) {
		t.Fatalf("length changed: got %d want %d", len(out), len(orig))
	}
	flipped := 0
	for i := range out {
		if out[i] != orig[i] {
			flipped++
			if i < 5 {
				t.Fatalf("header byte %d corrupted; only payload bytes may flip", i)
			}
		}
	}
	if flipped != 1 {
		t.Fatalf("flipped %d bytes, want exactly 1", flipped)
	}
}

func TestStallDelaysFrame(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	stall := 80 * time.Millisecond
	cfg := Config{Seed: 5, Stall: stall, Schedule: []Fault{{Frame: 0, Dir: Send, Kind: Stall}}}
	w := Wrap(a, cfg, 1)
	got := collect(b)
	start := time.Now()
	if err := sendAll(t, w, frame(1, []byte("x")), 0); err != nil {
		t.Fatalf("write: %v", err)
	}
	if el := time.Since(start); el < stall {
		t.Fatalf("stalled write returned after %v, want >= %v", el, stall)
	}
	w.Close()
	<-got
}

func TestRecvFaults(t *testing.T) {
	a, b := net.Pipe()
	cfg := Config{Seed: 11, Schedule: []Fault{{Frame: 1, Dir: Recv, Kind: Drop}}}
	w := Wrap(a, cfg, 1)
	go func() {
		b.Write(frame(1, []byte("ok")))
		b.Write(frame(2, []byte("doomed")))
	}()
	buf := make([]byte, 256)
	n, err := io.ReadFull(w, buf[:7]) // frame 0: 5 hdr + 2 payload
	if err != nil || n != 7 {
		t.Fatalf("frame 0 read: %d, %v", n, err)
	}
	if _, err := io.ReadAtLeast(w, buf, len(frame(2, []byte("doomed")))); err == nil {
		t.Fatalf("recv drop did not surface")
	}
	var ie *InjectedError
	if err := w.Close(); err != nil && !errors.As(err, &ie) {
		t.Fatalf("close: %v", err)
	}
	b.Close()
}

// TestDeterministicFaultStream replays the same byte stream through two
// wrappers with the same seed and asserts the injected faults are
// identical, and that a different connection id draws a different stream.
func TestDeterministicFaultStream(t *testing.T) {
	run := func(id uint64) []Event {
		a, b := net.Pipe()
		defer b.Close()
		var events []Event
		cfg := Config{
			Seed:        42,
			DropProb:    0.1,
			CorruptProb: 0.2,
			StallProb:   0.2,
			Stall:       time.Millisecond,
			OnFault:     func(ev Event) { events = append(events, ev) },
		}
		w := Wrap(a, cfg, id)
		got := collect(b)
		var stream []byte
		for i := 0; i < 40; i++ {
			stream = append(stream, frame(byte(i%7+1), bytes.Repeat([]byte{byte(i)}, i*3%50))...)
		}
		sendAll(t, w, stream, 11) // error (an injected drop) is fine
		w.Close()
		<-got
		return events
	}
	e1, e2 := run(1), run(1)
	if len(e1) == 0 {
		t.Fatalf("probabilistic config injected nothing over 40 frames")
	}
	if len(e1) != len(e2) {
		t.Fatalf("same seed, different fault counts: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("fault %d differs: %+v vs %+v", i, e1[i], e2[i])
		}
	}
	e3 := run(2)
	same := len(e1) == len(e3)
	if same {
		for i := range e1 {
			if e1[i].Frame != e3[i].Frame || e1[i].Kind != e3[i].Kind {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatalf("different conn ids drew identical fault streams")
	}
}

func TestMaxWriteChunkSplitsWrites(t *testing.T) {
	a, b := net.Pipe()
	w := Wrap(a, Config{MaxWriteChunk: 4}, 1)
	sizes := make(chan int, 64)
	go func() {
		buf := make([]byte, 64)
		for {
			n, err := b.Read(buf)
			if n > 0 {
				sizes <- n
			}
			if err != nil {
				close(sizes)
				return
			}
		}
	}()
	if err := sendAll(t, w, frame(1, bytes.Repeat([]byte{1}, 20)), 0); err != nil {
		t.Fatalf("write: %v", err)
	}
	w.Close()
	b.Close()
	for n := range sizes {
		if n > 4 {
			t.Fatalf("read observed a %d-byte write, chunk cap is 4", n)
		}
	}
}

func TestListenerAssignsIDs(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	cl, err := NewListener(ln, Config{Seed: 1, DropProb: 0.5})
	if err != nil {
		t.Fatalf("NewListener: %v", err)
	}
	defer cl.Close()
	done := make(chan uint64, 2)
	go func() {
		for i := 0; i < 2; i++ {
			c, err := cl.Accept()
			if err != nil {
				return
			}
			done <- c.(*Conn).id
			c.Close()
		}
	}()
	for i := 0; i < 2; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		c.Close()
	}
	ids := map[uint64]bool{<-done: true, <-done: true}
	if !ids[1] || !ids[2] {
		t.Fatalf("want conn ids {1,2}, got %v", ids)
	}
	for _, bad := range []Config{{DropProb: 2}, {DropProb: 0.6, ResetProb: 0.6}} {
		if _, err := NewListener(ln, bad); err == nil {
			t.Fatalf("invalid probabilities accepted: %+v", bad)
		}
	}
}
