package pbs

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// hostedOf returns the hosted set registered under name.
func hostedOf(t *testing.T, srv *Server, name string) *hostedSet {
	t.Helper()
	hs, ok := srv.sets.Get(name)
	if !ok {
		t.Fatalf("set %q not registered", name)
	}
	return hs
}

// dirListing maps every file in dir to its size.
func dirListing(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64, len(entries))
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = fi.Size()
	}
	return out
}

// requireMeta fails unless the set's maintained metadata is exactly what a
// pass over elems computes, and its sketch what element-by-element Adds
// give (a bulk sketch of a large set is summed from parts).
func requireMeta(t *testing.T, hs *hostedSet, elems []uint64, when string) {
	t.Helper()
	want := metaFor(hs.h.tow, hs.h.opt.Seed, sortedU64(elems))
	ys := make([]int64, hs.h.tow.L())
	for _, x := range elems {
		hs.h.tow.Add(ys, x)
	}
	hs.mu.Lock()
	got := hs.meta
	hs.mu.Unlock()
	if got.count != want.count || !slices.Equal(got.sketch, want.sketch) || !slices.Equal(got.sketch, ys) ||
		got.digest != want.digest {
		t.Fatalf("%s: maintained meta (count %d) differs from a fresh pass (count %d)", when, got.count, want.count)
	}
}

// TestHostedLargeSetMeta: Host sketches a set above the estimator's
// fan-out floor in parts, on several goroutines, and must keep exactly
// the metadata of a serial pass.
func TestHostedLargeSetMeta(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	srv := NewServer(ServerOptions{Protocol: &Options{Seed: 147}})
	base := hostedBase(9, 3*4096+5)
	if err := srv.Host("big/set", base); err != nil {
		t.Fatal(err)
	}
	requireMeta(t, hostedOf(t, srv, "big/set"), base, "after Host")
}

// TestHostedReadOnlySyncsWriteNothing: a catalog larger than the resident
// watermark, only ever synced against, is evicted and reloaded over and
// over — and not one byte reaches the data dir, at eviction or at shutdown.
func TestHostedReadOnlySyncsWriteNothing(t *testing.T) {
	dir := t.TempDir()
	opt := &Options{Seed: 141}
	const sets, size = 12, 300
	srv := NewServer(ServerOptions{Protocol: opt, DataDir: dir, MaxResidentBytes: 8000}) // ~3 sets
	if _, err := srv.EnableHosting(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < sets; k++ {
		if err := srv.Host(fmt.Sprintf("ro/s%02d", k), hostedBase(k, size)); err != nil {
			t.Fatal(err)
		}
	}
	hosted := dirListing(t, dir)
	if len(hosted) != sets {
		t.Fatalf("%d files after hosting %d sets", len(hosted), sets)
	}
	addr := serveHosted(t, srv)
	for pass := 0; pass < 3; pass++ {
		for k := 0; k < sets; k++ {
			local, want := hostedClientSet(hostedBase(k, size), k)
			mustSyncExact(t, addr, opt, fmt.Sprintf("ro/s%02d", k), local, want)
		}
	}
	waitFor(t, func() bool { return srv.Stats().Active == 0 })
	st := srv.Stats()
	if st.Evictions == 0 || st.ColdLoads == 0 {
		t.Fatalf("catalog never churned: %d evictions, %d cold loads", st.Evictions, st.ColdLoads)
	}
	if st.SegmentMerges != 0 {
		t.Fatalf("read-only syncs caused %d segment merges", st.SegmentMerges)
	}
	if now := dirListing(t, dir); !maps.Equal(hosted, now) {
		t.Fatalf("read-only syncs changed the data dir:\n before %v\n after  %v", hosted, now)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if now := dirListing(t, dir); !maps.Equal(hosted, now) {
		t.Fatalf("shutdown after read-only syncs changed the data dir:\n before %v\n after  %v", hosted, now)
	}
}

// TestHostedUpdateMatchesFreshHost drives a hosted set through seeded
// write batches — duplicates inside a batch, an element in both add and
// remove (adds land first: it ends absent), writes that change nothing, a
// batch landing on an evicted set — and after each requires the maintained
// count, sketch and digest to equal a fresh pass over the elements. At the
// end a session against it is byte-identical, both directions, to one
// against a fresh Host of the same elements, and the set comes back the
// same from Close → EnableHosting.
func TestHostedUpdateMatchesFreshHost(t *testing.T) {
	dir := t.TempDir()
	opt := &Options{Seed: 142, StrongVerify: true}
	const size = 400
	// Room for one set: hosting the filler evicts the set under test.
	srv := NewServer(ServerOptions{Protocol: opt, DataDir: dir, MaxResidentBytes: 256 + 8*size + 64})
	if _, err := srv.EnableHosting(); err != nil {
		t.Fatal(err)
	}
	base := hostedBase(7, size)
	if err := srv.Host("m/set", base); err != nil {
		t.Fatal(err)
	}
	hs := hostedOf(t, srv, "m/set")
	model := make(map[uint64]bool, size)
	for _, x := range base {
		model[x] = true
	}
	elems := func() []uint64 {
		out := make([]uint64, 0, len(model))
		for x := range model {
			out = append(out, x)
		}
		return out
	}
	apply := func(when string, add, remove []uint64) {
		t.Helper()
		if err := srv.HostedUpdate("m/set", add, remove); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		for _, x := range add {
			model[x] = true
		}
		for _, x := range remove {
			delete(model, x)
		}
		requireMeta(t, hs, elems(), when)
	}

	rng := rand.New(rand.NewPCG(142, 143))
	draw := func(n int) []uint64 { // from a universe about twice the set, so both hits and misses
		out := make([]uint64, n)
		for i := range out {
			out[i] = 7<<20 | uint64(rng.IntN(2*size)+1)
		}
		return out
	}
	for i := 0; i < 12; i++ {
		add, remove := draw(9), draw(9)
		add = append(add, add[0], add[3])          // in-batch duplicates
		remove = append(remove, remove[1], add[5]) // and one element on both sides
		apply(fmt.Sprintf("batch %d", i), add, remove)
	}
	absent, present := uint64(7<<20|3*size), base[size-1] // absent: outside what draw reaches
	apply("both sides, absent before", []uint64{absent}, []uint64{absent})
	apply("make present", []uint64{present}, nil)
	apply("both sides, present before", []uint64{present}, []uint64{present})
	if model[absent] || model[present] {
		t.Fatal("test model: an element on both sides must end absent")
	}
	before := hs.snap
	apply("no-op", elems()[:5], []uint64{absent, 7<<20 | uint64(3*size+1)})
	if hs.snap != before {
		t.Fatal("a batch that changes nothing replaced the snapshot")
	}

	// Evict it, then write: the batch lands on a cold set.
	if err := srv.Host("m/filler", hostedBase(8, size)); err != nil {
		t.Fatal(err)
	}
	hs.mu.Lock()
	cold := hs.snap == nil
	hs.mu.Unlock()
	if !cold {
		t.Fatal("set under test was not evicted")
	}
	loads := srv.Stats().ColdLoads
	apply("batch on a cold set", draw(6), draw(6))
	if got := srv.Stats().ColdLoads; got != loads+1 {
		t.Fatalf("cold update: ColdLoads %d → %d, want one load", loads, got)
	}

	// Same bytes on the wire as a set hosted from scratch.
	final := elems()
	fresh := NewServer(ServerOptions{Protocol: opt})
	defer fresh.Close()
	if err := fresh.Host("m/set", final); err != nil {
		t.Fatal(err)
	}
	local, want := hostedClientSet(sortedU64(final), 5)
	session := func(hs *hostedSet) (sent, received []byte) {
		is, opening := helloInitiator(t, local, opt, "", 1)
		sent, received = driveEngine(t, is, opening, hs.sharedView().newServerSession())
		if res := is.res; !res.Complete || !slices.Equal(sortedU64(res.Difference), sortedU64(want)) {
			t.Fatalf("session learned %d elements (complete=%v), want %d", len(res.Difference), res.Complete, len(want))
		}
		return sent, received
	}
	sentU, recvU := session(hs)
	sentF, recvF := session(hostedOf(t, fresh, "m/set"))
	if !bytes.Equal(sentU, sentF) || !bytes.Equal(recvU, recvF) {
		t.Fatalf("updated set and fresh host differ on the wire: %d/%d bytes sent, %d/%d received",
			len(sentU), len(sentF), len(recvU), len(recvF))
	}

	// And the same set after a restart.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	re := NewServer(ServerOptions{Protocol: opt, DataDir: dir})
	if n, err := re.EnableHosting(); err != nil || n != 2 {
		t.Fatalf("recovered %d sets (%v), want 2", n, err)
	}
	requireMeta(t, hostedOf(t, re, "m/set"), final, "after restart")
	mustSyncExact(t, serveHosted(t, re), opt, "m/set", local, want)
}

// TestHostedRejectsInvalidElements: Host and HostedUpdate refuse a zero or
// too-wide element with the error NewSet and Set.Add give, before touching
// anything — at the parent both accepted it and every later session on the
// set failed, across restarts.
func TestHostedRejectsInvalidElements(t *testing.T) {
	dir := t.TempDir()
	opt := &Options{Seed: 143}
	srv := NewServer(ServerOptions{Protocol: opt, DataDir: dir})
	if _, err := srv.EnableHosting(); err != nil {
		t.Fatal(err)
	}
	base := hostedBase(2, 300)
	wantErr := func(err error, elem string) {
		t.Helper()
		if want := "pbs: element " + elem + " outside 32-bit universe (0 excluded)"; err == nil || err.Error() != want {
			t.Fatalf("got error %v, want %q", err, want)
		}
	}
	wantErr(srv.Host("v/set", append(slices.Clone(base), 0)), "0x0")
	wantErr(srv.Host("v/set", append(slices.Clone(base), 1<<32)), "0x100000000")
	if st := srv.Stats(); st.SetsHosted != 0 || len(dirListing(t, dir)) != 0 {
		t.Fatalf("a rejected Host left %d sets, %d files", st.SetsHosted, len(dirListing(t, dir)))
	}

	// Duplicates in Host's input are still dropped, not rejected.
	if err := srv.Host("v/set", append(slices.Clone(base), base[:10]...)); err != nil {
		t.Fatal(err)
	}
	hs := hostedOf(t, srv, "v/set")
	requireMeta(t, hs, base, "after Host")
	files, snap := dirListing(t, dir), hs.snap
	wantErr(srv.HostedUpdate("v/set", []uint64{5, 0}, base[:3]), "0x0")
	wantErr(srv.HostedUpdate("v/set", []uint64{5, 1 << 40}, base[:3]), "0x10000000000")
	requireMeta(t, hs, base, "after rejected updates")
	if adds, dels, ok := hs.snap.Since(hs.saved); hs.snap != snap || !ok || len(adds)+len(dels) != 0 {
		t.Fatal("a rejected HostedUpdate touched the set")
	}
	if now := dirListing(t, dir); !maps.Equal(files, now) {
		t.Fatalf("a rejected HostedUpdate wrote to the data dir: %v → %v", files, now)
	}
	if _, reserved, _ := srv.TenantUsage("v"); reserved != hostedElemBytes*int64(len(base)) {
		t.Fatalf("a rejected HostedUpdate left %d bytes reserved, want %d", reserved, hostedElemBytes*len(base))
	}
	local, want := hostedClientSet(base, 2)
	mustSyncExact(t, serveHosted(t, srv), opt, "v/set", local, want)
}

// TestHostedConcurrentWritesSyncsEvictions runs writers, readers and the
// eviction they cause on one small catalog at once. Each written set has
// one owner (so the difference its syncs must learn is known); two more
// sets are read by two goroutines each; the watermark holds two of the six,
// so every goroutine keeps evicting the others' sets. Every sync is exact.
func TestHostedConcurrentWritesSyncsEvictions(t *testing.T) {
	dir := t.TempDir()
	opt := &Options{Seed: 144}
	const written, readOnly, size, iters = 4, 2, 200, 12
	srv := NewServer(ServerOptions{Protocol: opt, DataDir: dir, MaxResidentBytes: 2*(256+8*size) + 64})
	if _, err := srv.EnableHosting(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < written+readOnly; k++ {
		if err := srv.Host(fmt.Sprintf("c/s%d", k), hostedBase(k, size)); err != nil {
			t.Fatal(err)
		}
	}
	addr := serveHosted(t, srv)

	// sync is mustSyncExact for goroutines other than the test's own.
	sync1 := func(k int, local, want []uint64) error {
		res, err := dialSync(addr, fmt.Sprintf("c/s%d", k), opt, local)
		if err != nil {
			return fmt.Errorf("sync s%d: %w", k, err)
		}
		if !slices.Equal(sortedU64(res.Difference), sortedU64(want)) {
			return fmt.Errorf("sync s%d learned %d elements, want %d", k, len(res.Difference), len(want))
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, written+2*readOnly)
	for k := 0; k < written; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cur := hostedBase(k, size)
			for i := 0; i < iters; i++ {
				// Rotate: drop the two oldest elements, add two new ones.
				add := []uint64{uint64(k)<<20 | uint64(size+2*i+1), uint64(k)<<20 | uint64(size+2*i+2)}
				if err := srv.HostedUpdate(fmt.Sprintf("c/s%d", k), add, cur[:2]); err != nil {
					errs <- err
					return
				}
				cur = append(cur[2:], add...)
				local, want := hostedClientSet(cur, k)
				if err := sync1(k, local, want); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for r := 0; r < 2*readOnly; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := written + r%readOnly
			local, want := hostedClientSet(hostedBase(k, size), k)
			for i := 0; i < iters; i++ {
				if err := sync1(k, local, want); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := srv.Stats(); st.Evictions == 0 || st.ColdLoads == 0 || st.Failed != 0 {
		t.Fatalf("evictions %d, cold loads %d, failed sessions %d", st.Evictions, st.ColdLoads, st.Failed)
	}
}

// TestHostedOpensParentDataDir recovers testdata/hosted_parent_datadir,
// written by the build before the persisted d̂ prior was deleted: four sets
// of hostedBase(k, 120) under seed 1414, every footer after the first
// carrying a prior, s0/s1/s3 with two element-free delta segments each
// (evictions that had only a prior to persist) and s2 with one real delta.
func TestHostedOpensParentDataDir(t *testing.T) {
	const fixture = "testdata/hosted_parent_datadir"
	dir := t.TempDir()
	entries, err := os.ReadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(fixture, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	opt := &Options{Seed: 1414}
	const sets, size = 4, 120
	finals := make([][]uint64, sets)
	for k := range finals {
		finals[k] = hostedBase(k, size)
	}
	finals[2] = append(finals[2][2:], 2<<20|1<<18, 2<<20|1<<18|1)

	srv := NewServer(ServerOptions{Protocol: opt, DataDir: dir})
	if n, err := srv.EnableHosting(); err != nil || n != sets {
		t.Fatalf("recovered %d sets (%v), want %d", n, err, sets)
	}
	// A write onto a chain that ends in element-free deltas.
	if err := srv.HostedUpdate("old/s0", []uint64{0x50000001}, finals[0][:1]); err != nil {
		t.Fatal(err)
	}
	finals[0] = append(finals[0][1:], 0x50000001)
	addr := serveHosted(t, srv)
	for k := 0; k < sets; k++ {
		requireMeta(t, hostedOf(t, srv, fmt.Sprintf("old/s%d", k)), finals[k], fmt.Sprintf("recovered s%d", k))
		local, want := hostedClientSet(finals[k], k)
		mustSyncExact(t, addr, opt, fmt.Sprintf("old/s%d", k), local, want)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for name := range dirListing(t, dir) {
		if strings.HasPrefix(name, ".tmp-") {
			t.Fatalf("stray temp file %s", name)
		}
	}
	re := NewServer(ServerOptions{Protocol: opt, DataDir: dir})
	if n, err := re.EnableHosting(); err != nil || n != sets {
		t.Fatalf("second recovery: %d sets (%v), want %d", n, err, sets)
	}
	addr = serveHosted(t, re)
	for k := 0; k < sets; k++ {
		local, want := hostedClientSet(finals[k], k)
		mustSyncExact(t, addr, opt, fmt.Sprintf("old/s%d", k), local, want)
	}
}

// TestHostedConcurrentHostOfOneName: concurrent Hosts of one name leave
// exactly one set resident, because each forgets the set its own
// registration replaced; and the newest full segment on disk is the
// registered winner's, so a fresh server recovering the directory reads
// back the winner's elements.
func TestHostedConcurrentHostOfOneName(t *testing.T) {
	opt := &Options{Seed: 4404}
	for try := 0; try < 20; try++ {
		dir := t.TempDir()
		srv := NewServer(ServerOptions{Protocol: opt, DataDir: dir})
		if _, err := srv.EnableHosting(); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for k := 0; k < 4; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := srv.Host("x", hostedBase(k, 300)); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if got := srv.Stats().SetsResident; got != 1 {
			t.Fatalf("try %d: %d sets resident for one registered name", try, got)
		}
		winner := hostedOf(t, srv, "x")
		winner.mu.Lock()
		want := winner.snap.Elements()
		winner.mu.Unlock()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}

		re := NewServer(ServerOptions{Protocol: opt, DataDir: dir})
		if _, err := re.EnableHosting(); err != nil {
			t.Fatal(err)
		}
		got, _, err := re.hosted.store.Load("x")
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("try %d: recovered %d elements from %#x, the registered winner holds %d from %#x",
				try, len(got), got[0], len(want), want[0])
		}
		re.Close()
	}
}

// TestHostedConcurrentUpdatesOfOneName runs concurrent HostedUpdates of one
// set, each of which settles the set's resident charge while another may be
// writing its count: under the race detector the charge must be read under
// the set's lock. Every update lands, and one set stays resident.
func TestHostedConcurrentUpdatesOfOneName(t *testing.T) {
	srv := NewServer(ServerOptions{Protocol: &Options{Seed: 4405}})
	base := hostedBase(1, 100)
	if err := srv.Host("x", base); err != nil {
		t.Fatal(err)
	}
	const writers, iters = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := srv.HostedUpdate("x", []uint64{uint64(w+2)<<20 | uint64(i+1)}, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got, want := hostedOf(t, srv, "x").logicalBytes(), int64(hostedElemBytes*(len(base)+writers*iters)); got != want {
		t.Fatalf("logical bytes %d, want %d", got, want)
	}
	if st := srv.Stats(); st.SetsResident != 1 {
		t.Fatalf("%d sets resident", st.SetsResident)
	}
}

// TestHostedReplacedVictimWritesNothing: a set picked as an eviction victim
// and replaced by Host before its demotion runs writes no segment — its
// dirty delta would land on top of the replacer's full segment, and a
// recovery would read the replaced set's writes over the winner's elements.
func TestHostedReplacedVictimWritesNothing(t *testing.T) {
	dir := t.TempDir()
	opt := &Options{Seed: 4406}
	srv := NewServer(ServerOptions{Protocol: opt, DataDir: dir})
	if _, err := srv.EnableHosting(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Host("x", hostedBase(1, 200)); err != nil {
		t.Fatal(err)
	}
	if err := srv.HostedUpdate("x", []uint64{1<<20 | 1000}, nil); err != nil {
		t.Fatal(err)
	}
	// Pick the set as evictOver does, leaving the eviction for later.
	victim := hostedOf(t, srv, "x")
	h := srv.hosted
	h.mu.Lock()
	h.removeLocked(victim)
	h.mu.Unlock()

	want := hostedBase(2, 200)
	if err := srv.Host("x", want); err != nil {
		t.Fatal(err)
	}
	if w := victim.evict(); w != nil {
		h.write(victim, w)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	re := NewServer(ServerOptions{Protocol: opt, DataDir: dir})
	if _, err := re.EnableHosting(); err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, _, err := re.hosted.store.Load("x")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("recovered %d elements, the replacer holds %d", len(got), len(want))
	}
}

// TestHostedWriterCompactsChain alternates updates between two sets under a
// watermark that holds one, so every update evicts the other set with a
// segment write. Once each write commits no chain is DefaultMergeThreshold
// segments long: the write that would make it so is a full segment, whose
// append prunes the chain. A fresh server recovers both sets exactly.
func TestHostedWriterCompactsChain(t *testing.T) {
	dir := t.TempDir()
	opt := &Options{Seed: 4801}
	const size = 200
	srv := NewServer(ServerOptions{Protocol: opt, DataDir: dir, MaxResidentBytes: 256 + 8*(size+64)})
	if _, err := srv.EnableHosting(); err != nil {
		t.Fatal(err)
	}
	names := []string{"c/a", "c/b"}
	cur := make([][]uint64, len(names))
	for k, name := range names {
		cur[k] = hostedBase(k, size)
		if err := srv.Host(name, cur[k]); err != nil {
			t.Fatal(err)
		}
	}
	store := srv.hosted.store
	for i := 0; i < 24; i++ {
		k := i % 2
		add := []uint64{uint64(k)<<20 | uint64(1<<16+i)}
		if err := srv.HostedUpdate(names[k], add, cur[k][:1]); err != nil {
			t.Fatal(err)
		}
		cur[k] = append(cur[k][1:], add...)
		waitWrites(srv)
		segs := 0
		for _, name := range names {
			n := store.Segments(name)
			if n >= DefaultMergeThreshold {
				t.Fatalf("update %d: %s has a chain of %d segments", i, name, n)
			}
			segs += n
		}
		if files := len(dirListing(t, dir)); files != segs {
			t.Fatalf("update %d: %d files on disk for %d segments", i, files, segs)
		}
	}
	// Updates 1–23 each evict the set the one before wrote: 12 writes of
	// c/a and 11 of c/b, every third of a set's a full segment.
	if m := srv.Stats().SegmentMerges; m != 7 {
		t.Fatalf("%d segment merges, want 7", m)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	re := NewServer(ServerOptions{Protocol: opt, DataDir: dir})
	if _, err := re.EnableHosting(); err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for k, name := range names {
		got, _, err := re.hosted.store.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, sortedU64(cur[k])) {
			t.Fatalf("%s recovered %d elements, want %d", name, len(got), len(cur[k]))
		}
	}
}

// twoSetServer hosts c/a and c/b, each of size elements, under a watermark
// that holds one: hosting c/b evicts c/a, and from then on each update of
// the cold set evicts the other.
func twoSetServer(t *testing.T, dir string, opt *Options, size int) (srv *Server, a, b []uint64) {
	t.Helper()
	srv = NewServer(ServerOptions{Protocol: opt, DataDir: dir, MaxResidentBytes: 256 + 8*int64(size+64)})
	if _, err := srv.EnableHosting(); err != nil {
		t.Fatal(err)
	}
	a, b = hostedBase(0, size), hostedBase(1, size)
	if err := srv.Host("c/a", a); err != nil {
		t.Fatal(err)
	}
	if err := srv.Host("c/b", b); err != nil {
		t.Fatal(err)
	}
	return srv, a, b
}

// TestHostedCancelledWritesWriteNothing: a set whose writes between two
// evictions cancel out — an element added then removed, another removed
// then added back — writes no segment at its second eviction.
func TestHostedCancelledWritesWriteNothing(t *testing.T) {
	dir := t.TempDir()
	opt := &Options{Seed: 4901}
	srv, a, _ := twoSetServer(t, dir, opt, 200)
	files := dirListing(t, dir)
	x := uint64(1<<20 | 1<<16)
	if err := srv.HostedUpdate("c/a", []uint64{x}, a[:1]); err != nil { // evicts c/b
		t.Fatal(err)
	}
	if err := srv.HostedUpdate("c/a", a[:1], []uint64{x}); err != nil {
		t.Fatal(err)
	}
	if err := srv.HostedUpdate("c/b", nil, nil); err != nil { // evicts c/a
		t.Fatal(err)
	}
	waitWrites(srv)
	if ev := srv.Stats().Evictions; ev != 3 {
		t.Fatalf("%d evictions, want 3", ev)
	}
	if now := dirListing(t, dir); !maps.Equal(files, now) {
		t.Fatalf("writes that cancelled out reached the data dir: %v → %v", files, now)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if now := dirListing(t, dir); !maps.Equal(files, now) {
		t.Fatalf("Close wrote writes that cancelled out: %v → %v", files, now)
	}
}

// TestHostedRebasedSetWritesFull: a resident set written past its
// snapshot's re-base between two evictions has no net since the snapshot
// the store holds to read, so its second eviction writes one full segment
// — a chain of one, not a delta on top — and a fresh server recovers it
// exactly.
func TestHostedRebasedSetWritesFull(t *testing.T) {
	dir := t.TempDir()
	opt := &Options{Seed: 4902}
	const size = 200
	srv, a, _ := twoSetServer(t, dir, opt, size)
	store := srv.hosted.store
	// Rotate a fifth of the set per batch, three times: 240 writes, past the
	// re-base at |S|/2.
	for i := 0; i < 3; i++ {
		add := make([]uint64, size/5)
		for j := range add {
			add[j] = 1<<20 | uint64(1<<16+i*size+j)
		}
		if err := srv.HostedUpdate("c/a", add, a[:size/5]); err != nil {
			t.Fatal(err)
		}
		a = append(a[size/5:], add...)
	}
	hs := hostedOf(t, srv, "c/a")
	hs.mu.Lock()
	_, _, ok := hs.snap.Since(hs.saved)
	hs.mu.Unlock()
	if ok {
		t.Fatal("the writes did not re-base the snapshot: the test exercises nothing")
	}
	merges := srv.Stats().SegmentMerges
	if err := srv.HostedUpdate("c/b", nil, nil); err != nil { // evicts c/a
		t.Fatal(err)
	}
	waitWrites(srv)
	if n, m := store.Segments("c/a"), srv.Stats().SegmentMerges; n != 1 || m != merges+1 {
		t.Fatalf("after the eviction: a chain of %d, %d merges (was %d); want one full segment", n, m, merges)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	re := NewServer(ServerOptions{Protocol: opt, DataDir: dir})
	if _, err := re.EnableHosting(); err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, _, err := re.hosted.store.Load("c/a")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, sortedU64(a)) {
		t.Fatalf("recovered %d elements, want %d", len(got), len(a))
	}
	requireMeta(t, hostedOf(t, re, "c/a"), a, "after recovery")
}
