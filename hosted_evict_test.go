package pbs

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pbs/internal/setstore"
)

// TestHostedEvictionDecisionsPinned runs one fixed sequence of Host,
// HostedUpdate and syncs, one at a time, under a watermark of about three
// sets. Which sets are evicted and cold-loaded is decided on the calling
// goroutine, so the counters and every difference learned are functions
// of the sequence: the constants were recorded when the eviction write
// still ran inline.
func TestHostedEvictionDecisionsPinned(t *testing.T) {
	dir := t.TempDir()
	opt := &Options{Seed: 145}
	const sets, size = 8, 200
	srv := NewServer(ServerOptions{Protocol: opt, DataDir: dir, MaxResidentBytes: 3*(256+8*size) + 64})
	if _, err := srv.EnableHosting(); err != nil {
		t.Fatal(err)
	}
	cur := make([][]uint64, sets)
	for k := range cur {
		cur[k] = hostedBase(k, size)
		if err := srv.Host(fmt.Sprintf("p/s%d", k), cur[k]); err != nil {
			t.Fatal(err)
		}
	}
	addr := serveHosted(t, srv)
	rng := rand.New(rand.NewPCG(145, 146))
	h := fnv.New64a()
	for step := 0; step < 60; step++ {
		k := rng.IntN(sets)
		if step%3 == 0 {
			// Rotate: drop the two oldest elements, add two new ones.
			add := []uint64{uint64(k)<<20 | uint64(size+2*step+1), uint64(k)<<20 | uint64(size+2*step+2)}
			if err := srv.HostedUpdate(fmt.Sprintf("p/s%d", k), add, cur[k][:2]); err != nil {
				t.Fatal(err)
			}
			cur[k] = append(cur[k][2:], add...)
			continue
		}
		local, want := hostedClientSet(cur[k], k+step)
		mustSyncExact(t, addr, opt, fmt.Sprintf("p/s%d", k), local, want)
		for _, x := range sortedU64(want) {
			fmt.Fprintf(h, "%d:%x,", step, x)
		}
	}
	st := srv.Stats()
	const wantLoads, wantEvictions, wantDiffs = 39, 44, 0x4c2982dbd777f19
	if st.ColdLoads != wantLoads || st.Evictions != wantEvictions || h.Sum64() != wantDiffs {
		t.Fatalf("cold loads %d, evictions %d, differences %#x; want %d, %d, %#x",
			st.ColdLoads, st.Evictions, h.Sum64(), wantLoads, wantEvictions, uint64(wantDiffs))
	}
}

// TestHostedEvictedDirtySyncsNewestWrites evicts a freshly written set and
// syncs it straight away, over and over: the eviction's segment write runs
// behind, a write's cold load waits for it and a sync's takes the snapshot
// back from it, so every sync learns the set with its newest writes.
func TestHostedEvictedDirtySyncsNewestWrites(t *testing.T) {
	dir := t.TempDir()
	opt := &Options{Seed: 146}
	const sets, size = 3, 200
	srv := NewServer(ServerOptions{Protocol: opt, DataDir: dir, MaxResidentBytes: 2*(256+8*size) + 64})
	if _, err := srv.EnableHosting(); err != nil {
		t.Fatal(err)
	}
	cur := make([][]uint64, sets)
	for k := range cur {
		cur[k] = hostedBase(k, size)
		if err := srv.Host(fmt.Sprintf("d/s%d", k), cur[k]); err != nil {
			t.Fatal(err)
		}
	}
	addr := serveHosted(t, srv)
	for i := 0; i < 12; i++ {
		// Write to one set, then page the other two in (a write that
		// changes nothing loads a cold set), which evicts the written one.
		k := i % sets
		add := []uint64{uint64(k)<<20 | uint64(size+i+1)}
		if err := srv.HostedUpdate(fmt.Sprintf("d/s%d", k), add, cur[k][:1]); err != nil {
			t.Fatal(err)
		}
		cur[k] = append(cur[k][1:], add...)
		for j := 1; j < sets; j++ {
			if err := srv.HostedUpdate(fmt.Sprintf("d/s%d", (k+j)%sets), nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		hs := hostedOf(t, srv, fmt.Sprintf("d/s%d", k))
		hs.mu.Lock()
		cold := hs.snap == nil
		hs.mu.Unlock()
		if !cold {
			t.Fatalf("step %d: s%d was not evicted", i, k)
		}
		if i%2 == 0 {
			// Page it straight back in, in process, while its write is
			// most likely still in flight.
			if err := srv.HostedUpdate(fmt.Sprintf("d/s%d", k), nil, nil); err != nil {
				t.Fatal(err)
			}
			hs.mu.Lock()
			got := hs.snap.Elements()
			hs.mu.Unlock()
			if !slices.Equal(got, sortedU64(cur[k])) {
				t.Fatalf("step %d: s%d reloaded without its newest writes", i, k)
			}
		}
		local, want := hostedClientSet(cur[k], i)
		mustSyncExact(t, addr, opt, fmt.Sprintf("d/s%d", k), local, want)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	re := NewServer(ServerOptions{Protocol: opt, DataDir: dir})
	if n, err := re.EnableHosting(); err != nil || n != sets {
		t.Fatalf("recovered %d sets (%v), want %d", n, err, sets)
	}
	addr = serveHosted(t, re)
	for k := range cur {
		local, want := hostedClientSet(cur[k], k)
		mustSyncExact(t, addr, opt, fmt.Sprintf("d/s%d", k), local, want)
	}
}

// TestHostedSyncTakesBackInFlightWrite holds a dirty set's eviction write
// in flight and syncs the set: the sync's cold load takes the snapshot back
// from the write instead of waiting for it, and learns the set's newest
// writes. Evicted again meanwhile, the set adds no write of its own; a
// write to it waits the eviction write out, and is then all the set has
// left to write; and a restart recovers every write.
func TestHostedSyncTakesBackInFlightWrite(t *testing.T) {
	dir := t.TempDir()
	opt := &Options{Seed: 149}
	srv, q, held, w, a := evictionHeld(t, dir, opt)
	b := hostedBase(2, len(a))
	addr := serveHosted(t, srv)
	syncA := func() error {
		local, want := hostedClientSet(a, 0)
		res, err := dialSync(addr, "w/a", opt, local)
		if err == nil && !slices.Equal(sortedU64(res.Difference), sortedU64(want)) {
			err = fmt.Errorf("learned %d differences, want %d", len(res.Difference), len(want))
		}
		return err
	}

	hs := hostedOf(t, srv, "w/a")
	for i := 0; i < 2; i++ {
		loads := srv.Stats().ColdLoads
		q.none(t, "sync of a", syncA)
		if st, p := stateOf(hs); st != setWriting || p != w || srv.Stats().ColdLoads != loads+1 {
			t.Fatalf("sync %d: state %d, write in flight %v, %d cold loads (was %d)", i, st, p == w, srv.Stats().ColdLoads, loads)
		}
		if i == 0 {
			// Paging b back in evicts a again, with no write of its own.
			q.none(t, "second eviction of a", func() error { return srv.HostedUpdate("w/b", nil, nil) })
			if st, p := stateOf(hs); st != setEvicting || p != w {
				t.Fatalf("second eviction: state %d, write in flight %v", st, p == w)
			}
		}
	}

	addA2 := []uint64{1<<20 | 1<<18 | 1}
	updated := make(chan error, 1)
	go func() { updated <- srv.HostedUpdate("w/a", addA2, nil) }()
	q.awaits(t, "update of a", w, updated)
	held()
	q.none(t, "update of a", func() error { return <-updated })
	// The eviction write committed the snapshot the syncs took back, so
	// what a has left to write is the one update made since.
	hs.mu.Lock()
	var adds, dels []uint64
	ok := hs.snap != nil
	if ok {
		adds, dels, ok = hs.snap.Since(hs.saved)
	}
	hs.mu.Unlock()
	if !ok || !slices.Equal(adds, addA2) || len(dels) != 0 {
		t.Fatalf("a has +%v −%v left to write (ok %v), want +%v", adds, dels, ok, addA2)
	}
	a = append(a, addA2...)
	closeStepped(t, srv, q)
	re := NewServer(ServerOptions{Protocol: opt, DataDir: dir})
	if _, err := re.EnableHosting(); err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for name, want := range map[string][]uint64{"w/a": a, "w/b": b} {
		got, _, err := re.hosted.store.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, sortedU64(want)) {
			t.Fatalf("%s recovered %d elements, want %d", name, len(got), len(want))
		}
	}
}

// TestHostedEvictionWriteFailure takes the data dir away before an
// eviction, so the victim's segment write fails: the victim comes back
// resident with its writes and keeps serving them, and once the dir is
// back, Close persists them and a restart recovers them.
func TestHostedEvictionWriteFailure(t *testing.T) {
	parent := t.TempDir()
	dir, away := filepath.Join(parent, "data"), filepath.Join(parent, "away")
	opt := &Options{Seed: 147}
	const size = 200
	srv := NewServer(ServerOptions{Protocol: opt, DataDir: dir, MaxResidentBytes: 2*(256+8*size) + 64})
	if _, err := srv.EnableHosting(); err != nil {
		t.Fatal(err)
	}
	a, b := hostedBase(1, size), hostedBase(2, size)
	if err := srv.Host("f/a", a); err != nil {
		t.Fatal(err)
	}
	if err := srv.Host("f/b", b); err != nil {
		t.Fatal(err)
	}
	// Dirty a, then touch b, so a is the least recently used.
	addA := []uint64{1<<20 | 1<<18}
	if err := srv.HostedUpdate("f/a", addA, a[:1]); err != nil {
		t.Fatal(err)
	}
	a = append(a[1:], addA...)
	if err := srv.HostedUpdate("f/b", nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(dir, away); err != nil {
		t.Fatal(err)
	}
	// Growing b past the watermark evicts a; its write finds no dir.
	grow := make([]uint64, size/2)
	for i := range grow {
		grow[i] = 2<<20 | 1<<18 | uint64(i)
	}
	if err := srv.HostedUpdate("f/b", grow, nil); err != nil {
		t.Fatal(err)
	}
	b = append(b, grow...)
	// Let a's write fail before a sync comes: one landing while it is in
	// flight would take the snapshot back as a cold load.
	waitWrites(srv)
	if ev := srv.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions %d, want 1", ev)
	}

	addr := serveHosted(t, srv)
	loads := srv.Stats().ColdLoads
	for i := 0; i < 2; i++ {
		local, want := hostedClientSet(a, i)
		mustSyncExact(t, addr, opt, "f/a", local, want)
	}
	hs := hostedOf(t, srv, "f/a")
	hs.mu.Lock()
	resident, dirty := hs.snap != nil, -1
	if resident {
		if adds, dels, ok := hs.snap.Since(hs.saved); ok {
			dirty = len(adds) + len(dels)
		}
	}
	hs.mu.Unlock()
	if !resident || dirty != 2 {
		t.Fatalf("after the failed write: resident %v with %d dirty writes, want resident with 2", resident, dirty)
	}
	if st := srv.Stats(); st.ColdLoads != loads || st.SetsResident != 2 {
		t.Fatalf("after the failed write: %d cold loads (was %d), %d sets resident", st.ColdLoads, loads, st.SetsResident)
	}
	// Still writable while the dir is gone: a is resident, nothing is read.
	addA2 := []uint64{1<<20 | 1<<18 | 1}
	if err := srv.HostedUpdate("f/a", addA2, nil); err != nil {
		t.Fatal(err)
	}
	a = append(a, addA2...)
	local, want := hostedClientSet(a, 2)
	mustSyncExact(t, addr, opt, "f/a", local, want)

	if err := os.Rename(away, dir); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	re := NewServer(ServerOptions{Protocol: opt, DataDir: dir})
	if n, err := re.EnableHosting(); err != nil || n != 2 {
		t.Fatalf("recovered %d sets (%v), want 2", n, err)
	}
	addr = serveHosted(t, re)
	for name, elems := range map[string][]uint64{"a": a, "b": b} {
		local, want := hostedClientSet(elems, 3)
		mustSyncExact(t, addr, opt, "f/"+name, local, want)
	}
}

// TestHostedColdLoadRefusesOutOfUniverse opens data dirs whose chains
// replay to element 0, or to an element wider than SigBits, each with
// valid CRCs and a footer the server accepts: the cold load refuses the
// set with an error naming it, for a write and for a sync alike, and
// nothing is ever served from it.
func TestHostedColdLoadRefusesOutOfUniverse(t *testing.T) {
	opt := &Options{Seed: 148}
	for _, tc := range []struct {
		name string
		bad  uint64
	}{{"zero", 0}, {"wide", 1 << 32}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			plain := NewServer(ServerOptions{Protocol: opt})
			defer plain.Close()
			meta := func(elems []uint64) setstore.Meta {
				return plain.hosted.footer(metaFor(plain.hosted.tow, plain.hosted.opt.Seed, elems))
			}
			store, err := setstore.Open(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			base := hostedBase(3, 100)
			if err := store.AppendFull("x/bad", base, meta(base)); err != nil {
				t.Fatal(err)
			}
			// The delta's footer describes the set the chain replays to.
			final := append([]uint64{tc.bad}, base...)
			if err := store.AppendDelta("x/bad", []uint64{tc.bad}, nil, meta(final)); err != nil {
				t.Fatal(err)
			}
			store.Close()

			srv := NewServer(ServerOptions{Protocol: opt, DataDir: dir})
			if n, err := srv.EnableHosting(); err != nil || n != 1 {
				t.Fatalf("recovered %d sets (%v), want 1", n, err)
			}
			err = srv.HostedUpdate("x/bad", []uint64{7}, nil)
			if err == nil || !strings.Contains(err.Error(), `"x/bad"`) {
				t.Fatalf("HostedUpdate on the bad chain: %v, want an error naming the set", err)
			}
			addr := serveHosted(t, srv)
			local, _ := hostedClientSet(base, 1)
			if res, err := dialSync(addr, "x/bad", opt, local); err == nil {
				t.Fatalf("sync against the bad chain learned %d elements", len(res.Difference))
			}
			hs := hostedOf(t, srv, "x/bad")
			hs.mu.Lock()
			cold := hs.snap == nil
			hs.mu.Unlock()
			if st := srv.Stats(); !cold || st.ColdLoads != 0 || st.SetsResident != 0 {
				t.Fatalf("bad chain served: cold %v, %d cold loads, %d resident", cold, st.ColdLoads, st.SetsResident)
			}
		})
	}
}
