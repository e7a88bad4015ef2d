package pbs

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// writeSteps is a write executor a test steps, in the style of CHESS
// (Musuvathi et al., OSDI 2008): start hands each segment write's step to
// the test, which runs it when it chooses, and wait announces each wait
// for a write before it blocks. Every point where a hosted set's events
// meet the disk is then a step of the test's schedule, and no sleep or
// timeout decides an outcome.
type writeSteps struct {
	steps chan func()
	waits chan *segmentWrite
}

func (q writeSteps) start(step func()) { q.steps <- step }

func (q writeSteps) wait(w *segmentWrite) {
	q.waits <- w
	<-w.done
}

func (q writeSteps) close() {}

// stepWrites makes srv's segment writes steps of the returned queue. Call
// it before EnableHosting.
func stepWrites(srv *Server) writeSteps {
	q := writeSteps{steps: make(chan func()), waits: make(chan *segmentWrite)}
	srv.hosted.writes = q
	return q
}

// run calls f on a goroutine of its own and, until f returns, runs every
// write step started and takes every wait announced.
func (q writeSteps) run(f func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	for {
		select {
		case step := <-q.steps:
			step()
		case <-q.waits:
		case <-done:
			return
		}
	}
}

// none calls f on a goroutine of its own and fails the test if f errs, or
// starts a segment write or waits for one before it returns.
func (q writeSteps) none(t *testing.T, what string, f func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-q.steps:
		t.Fatalf("%s started a segment write", what)
	case <-q.waits:
		t.Fatalf("%s waited for a segment write", what)
	}
}

// awaits fails the test unless the next event of the schedule is a wait
// for w: the one f, started before, must block on.
func (q writeSteps) awaits(t *testing.T, what string, w *segmentWrite, done <-chan error) {
	t.Helper()
	select {
	case err := <-done:
		t.Fatalf("%s returned (%v) without waiting for the write in flight", what, err)
	case <-q.steps:
		t.Fatalf("%s started a segment write before the one in flight settled", what)
	case waited := <-q.waits:
		if waited != w {
			t.Fatalf("%s waited for another write", what)
		}
	}
}

// waitWrites returns once every segment write in flight on srv's
// production executor has settled: it takes each slot and hands it back.
func waitWrites(srv *Server) {
	x := srv.hosted.writes.(writeBehind)
	for range cap(x.slots) {
		x.slots <- struct{}{}
	}
	for range cap(x.slots) {
		<-x.slots
	}
}

// stateOf reads a hosted set's state and its write in flight.
func stateOf(hs *hostedSet) (hostedState, *segmentWrite) {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	return hs.state, hs.pending
}

// evictionHeld hosts w/a and w/b under a watermark that holds one set,
// writes to w/a, and evicts it by paging w/b in. It returns with w/a's
// delta write taken from q but not run: held runs it. a holds w/a's
// elements, w its write.
func evictionHeld(t *testing.T, dir string, opt *Options) (srv *Server, q writeSteps, held func(), w *segmentWrite, a []uint64) {
	t.Helper()
	const size = 200
	srv = NewServer(ServerOptions{Protocol: opt, DataDir: dir, MaxResidentBytes: 256 + 8*(size+64)})
	q = stepWrites(srv)
	if _, err := srv.EnableHosting(); err != nil {
		t.Fatal(err)
	}
	a = hostedBase(1, size)
	for k, name := range []string{"w/a", "w/b"} {
		var err error
		q.run(func() { err = srv.Host(name, hostedBase(k+1, size)) })
		if err != nil {
			t.Fatal(err)
		}
	}
	// w/b evicted w/a, written when hosted: paging it back in writes nothing.
	addA := []uint64{1<<20 | 1<<18}
	q.none(t, "update of w/a", func() error { return srv.HostedUpdate("w/a", addA, a[:1]) })
	a = append(a[1:], addA...)

	evicting := make(chan error, 1)
	go func() { evicting <- srv.HostedUpdate("w/b", nil, nil) }()
	held = <-q.steps
	if err := <-evicting; err != nil {
		t.Fatal(err)
	}
	st, w := stateOf(hostedOf(t, srv, "w/a"))
	if st != setEvicting || w == nil || w.full {
		t.Fatalf("w/a in state %d with write %v, want evicting with a delta in flight", st, w)
	}
	return srv, q, held, w, a
}

// closeStepped closes srv, running the shutdown's segment writes.
func closeStepped(t *testing.T, srv *Server, q writeSteps) {
	t.Helper()
	var err error
	q.run(func() { err = srv.Close() })
	if err != nil {
		t.Fatal(err)
	}
}

// requireRecovered restarts on dir and requires name's chain to replay to
// want, with a footer whose count, sketch and digest match it.
func requireRecovered(t *testing.T, dir string, opt *Options, name string, want []uint64) {
	t.Helper()
	re := NewServer(ServerOptions{Protocol: opt, DataDir: dir})
	if _, err := re.EnableHosting(); err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, meta, err := re.hosted.store.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	exp := re.hosted.footer(metaFor(re.hosted.tow, re.hosted.opt.Seed, sortedU64(want)))
	if !slices.Equal(got, sortedU64(want)) || meta.Count != exp.Count || !slices.Equal(meta.Sketch, exp.Sketch) ||
		!bytes.Equal(meta.Digest, exp.Digest) {
		t.Fatalf("%s recovered %d elements (footer count %d), want %d with their sketch and digest", name, len(got), meta.Count, len(want))
	}
}

// TestHostedUnregisterThenHostOrdersWrites unregisters w/a while its
// eviction delta is in flight, then hosts other elements under the name,
// after the Unregister and while it waits: either way the old delta lands
// before the new set's full segment, so a restart reads the new set. The
// delta landing on top read "replays to 201 elements, footer says 200".
func TestHostedUnregisterThenHostOrdersWrites(t *testing.T) {
	for _, tc := range []struct {
		name       string
		concurrent bool
	}{{"after", false}, {"during", true}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opt := &Options{Seed: 5501}
			srv, q, held, w, _ := evictionHeld(t, dir, opt)
			unregistered := make(chan error, 1)
			go func() {
				var err error
				if !srv.Unregister("w/a") {
					err = os.ErrNotExist
				}
				unregistered <- err
			}()
			q.awaits(t, "Unregister", w, unregistered)
			other := hostedBase(3, 200)
			hosted := make(chan error, 1)
			host := func() { hosted <- srv.Host("w/a", other) }
			if tc.concurrent {
				// The Host finds the set the Unregister is retiring and
				// waits its write out too.
				go host()
				q.awaits(t, "Host during the Unregister", w, hosted)
			}
			held()
			if err := <-unregistered; err != nil {
				t.Fatal(err)
			}
			if !tc.concurrent {
				go host()
			}
			var err error
			q.run(func() { err = <-hosted })
			if err != nil {
				t.Fatal(err)
			}
			closeStepped(t, srv, q)
			requireRecovered(t, dir, opt, "w/a", other)
		})
	}
}

// TestHostedFailedHostKeepsNewerHost: a Host whose first write fails
// unregisters its own set only. A newer Host of the name, published while
// the older one's write was in flight, waits that write out, writes its
// own, and stays registered, resident and charged.
func TestHostedFailedHostKeepsNewerHost(t *testing.T) {
	parent := t.TempDir()
	dir, away := filepath.Join(parent, "data"), filepath.Join(parent, "away")
	opt := &Options{Seed: 5502}
	srv := NewServer(ServerOptions{Protocol: opt, DataDir: dir})
	q := stepWrites(srv)
	if _, err := srv.EnableHosting(); err != nil {
		t.Fatal(err)
	}
	older, newer := hostedBase(1, 200), hostedBase(2, 300)
	first, second := make(chan error, 1), make(chan error, 1)
	go func() { first <- srv.Host("x/s", older) }()
	stepOlder := <-q.steps
	_, w := stateOf(hostedOf(t, srv, "x/s"))
	q.awaits(t, "the older Host", w, first)
	go func() { second <- srv.Host("x/s", newer) }()
	q.awaits(t, "the newer Host", w, second)

	// The older write finds no data dir.
	if err := os.Rename(dir, away); err != nil {
		t.Fatal(err)
	}
	stepOlder()
	if err := os.Rename(away, dir); err != nil {
		t.Fatal(err)
	}
	var errOlder, errNewer error
	q.run(func() { errOlder, errNewer = <-first, <-second })
	if errOlder == nil || errNewer != nil {
		t.Fatalf("older Host returned %v, newer %v; want the older write's failure and nil", errOlder, errNewer)
	}
	hs, ok := srv.sets.Get("x/s")
	if !ok {
		t.Fatal("the failed Host unregistered the newer set")
	}
	hs.mu.Lock()
	state, elems := hs.state, hs.snap.Elements()
	hs.mu.Unlock()
	if state != setResident || !slices.Equal(elems, newer) {
		t.Fatalf("x/s holds %d elements in state %d, want the newer Host's %d, resident", len(elems), state, len(newer))
	}
	st := srv.Stats()
	sets, charged, _ := srv.TenantUsage("x")
	if st.SetsHosted != 1 || st.SetsResident != 1 || sets != 1 || charged != hostedElemBytes*int64(len(newer)) {
		t.Fatalf("%d sets hosted, %d resident; tenant charged %d sets, %d B; want the newer set alone", st.SetsHosted, st.SetsResident, sets, charged)
	}
	closeStepped(t, srv, q)
	requireRecovered(t, dir, opt, "x/s", newer)
}

// TestHostedConcurrentHostsWriteInRegistryOrder schedules two Hosts of one
// name: the second replaces the first's set while its first full segment
// is in flight, waits that write out before it writes its own, and leaves
// one set resident; a restart reads the second set.
func TestHostedConcurrentHostsWriteInRegistryOrder(t *testing.T) {
	dir := t.TempDir()
	opt := &Options{Seed: 5503}
	srv := NewServer(ServerOptions{Protocol: opt, DataDir: dir})
	q := stepWrites(srv)
	if _, err := srv.EnableHosting(); err != nil {
		t.Fatal(err)
	}
	a, b := hostedBase(1, 200), hostedBase(2, 250)
	first, second := make(chan error, 1), make(chan error, 1)
	go func() { first <- srv.Host("x", a) }()
	stepA := <-q.steps
	_, w := stateOf(hostedOf(t, srv, "x"))
	q.awaits(t, "the first Host", w, first)
	go func() { second <- srv.Host("x", b) }()
	q.awaits(t, "the second Host", w, second)
	stepA()
	var errA, errB error
	q.run(func() { errA, errB = <-first, <-second })
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if st := srv.Stats(); st.SetsResident != 1 || st.SetsHosted != 1 {
		t.Fatalf("%d sets resident, %d hosted for one name", st.SetsResident, st.SetsHosted)
	}
	hs := hostedOf(t, srv, "x")
	hs.mu.Lock()
	elems := hs.snap.Elements()
	hs.mu.Unlock()
	if !slices.Equal(elems, b) {
		t.Fatal("the name does not map to the second Host's set")
	}
	closeStepped(t, srv, q)
	requireRecovered(t, dir, opt, "x", b)
}
