package core

import (
	"bytes"
	"maps"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// merged materializes group g of a partition.
func (p partition) merged(g int) []uint64 {
	set := p.group(g)
	return symDiffSorted(set.base, set.lag)
}

// applyShapes are the plan shapes the Apply tests keep alive on a snapshot:
// small group counts whose tables fit the budget, the same group count at a
// second bitmap degree, and one with more groups than elements (groups come
// and go empty, and no table fits).
func applyShapes(seed uint64) []Plan {
	shape := func(groups int, m uint) Plan {
		return Plan{M: m, T: 5, Groups: groups, MaxRounds: DefaultMaxRounds, SigBits: 32, Seed: seed, Parallelism: 1}
	}
	return []Plan{shape(3, 6), shape(7, 6), shape(7, 7), shape(40, 5), shape(5000, 6)}
}

// laggedRow returns row g of p's round-one table with the group's lag list
// folded on top: the round-one fold of the whole group, as the endpoints
// read it.
func (p partition) laggedRow(sd seeds, g int) foldRow {
	n := (uint64(1) << p.table.m) - 1
	sums, parity := p.table.rows[g].withLag(p.groups[g].lag, nil, sd.binSeed(newScopeID(g), 1), n, make([]uint64, n+1), make([]uint64, parityWords(n)))
	return foldRow{sums: sums, parity: parity}
}

// sameRow reports whether two rows hold the same sums and parities.
func sameRow(a, b foldRow) bool {
	return slices.Equal(a.sums, b.sums) && slices.Equal(a.parity, b.parity)
}

// cloneRows returns a deep copy of a table's rows.
func cloneRows(tab *foldTable) []foldRow {
	rows := make([]foldRow, len(tab.rows))
	for g, r := range tab.rows {
		rows[g] = foldRow{sums: slices.Clone(r.sums), parity: slices.Clone(r.parity)}
	}
	return rows
}

// uncut reports whether p's groups are still uncut (see lazyCut). It reads
// the lazy cut unsynchronized: not for use while a session may be cutting
// it.
func (p partition) uncut() bool { return p.cut.cuts == nil }

// uncutShapes counts the shapes cached on s whose groups are still uncut.
func (s *Snapshot) uncutShapes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, sh := range s.shapes {
		if sh.uncut() {
			n++
		}
	}
	return n
}

// refCut is the reference partition of snap into groups, cut eagerly: one
// counting pass records each element's group in an index array and sums
// the groups' checksums, then every group is filled in element order into
// its exact-size stretch of one backing array. It shares no pass with fold
// or lazyCut, so a fault of theirs shows against it.
func refCut(snap *Snapshot, groups int) partition {
	elems := snap.Elements()
	idx := make([]uint32, len(elems))
	sizes := make([]int, groups)
	slots := make([]groupSlot, groups)
	for i, x := range elems {
		g := snap.sd.groupOf(x, groups)
		idx[i] = uint32(g)
		sizes[g]++
		slots[g].check += x
	}
	backing := make([]uint64, len(elems))
	bases := make([][]uint64, groups)
	mask := sigMask(snap.sigBits)
	off := 0
	for g, size := range sizes {
		bases[g] = backing[off : off : off+size]
		slots[g].check &= mask
		off += size
	}
	for i, x := range elems {
		bases[idx[i]] = append(bases[idx[i]], x)
	}
	return partition{groups: slots, cut: cutOf(bases)}
}

// assertSameGroups requires got to hold the group checksums of a refCut of
// fresh, a snapshot built afresh from the same elements, and with groups
// the group contents too, which cuts got's groups if no reader has yet.
func assertSameGroups(t *testing.T, plan Plan, got partition, fresh *Snapshot, groups bool) {
	t.Helper()
	want := refCut(fresh, plan.Groups)
	for g := range want.groups {
		if groups && !slices.Equal(got.merged(g), want.merged(g)) {
			t.Fatalf("G=%d: group %d holds %d elements, a fresh cut %d", plan.Groups, g, len(got.merged(g)), len(want.merged(g)))
		}
		if got.groups[g].check != want.groups[g].check {
			t.Fatalf("G=%d: group %d checksum %#x, a fresh cut %#x", plan.Groups, g, got.groups[g].check, want.groups[g].check)
		}
	}
}

// assertSamePartition requires got (from a snapshot grown by Apply, or
// folded and cut lazily) to describe exactly what a cut of fresh does: the
// same groups (see assertSameGroups) and, row for row, the same round-one
// table once each group's lag is folded on top of its row, kept on the same
// terms as fresh's first read keeps it. The reference is refCut and a table
// folded from it, never a folded shape, so a fault of the lazy path shows.
func assertSamePartition(t *testing.T, plan Plan, got partition, fresh *Snapshot, groups bool) {
	t.Helper()
	assertSameGroups(t, plan, got, fresh, groups)
	kept := fresh.partitionFor(plan).table != nil
	if (got.table != nil) != kept {
		t.Fatalf("G=%d m=%d: table kept=%v, a fresh build keeps=%v", plan.Groups, plan.M, got.table != nil, kept)
	}
	if got.table == nil {
		return
	}
	for g, w := range buildFoldTable(refCut(fresh, plan.Groups), plan.M, fresh.sd, 1).rows {
		if !sameRow(got.laggedRow(fresh.sd, g), w) {
			t.Fatalf("G=%d m=%d: table row %d with its lag on top differs from a fresh fold", plan.Groups, plan.M, g)
		}
	}
}

// TestApplyMatchesFreshBuild grows a snapshot through random write batches
// and requires, after every batch and for every shape kept on it, exactly
// what a snapshot built afresh from the same elements holds. The batches
// include re-adding what an earlier batch removed (and the reverse), draining
// groups empty, and bursts large enough to re-base the element slice, rewrite
// group slices and drop shapes that fell too far behind. Every shape is
// folded on its first read and its groups left uncut; a check reads only
// checksums and rows half the time, so many shapes meet their first write,
// through Apply and absorb, still uncut.
func TestApplyMatchesFreshBuild(t *testing.T) {
	const seed = 0xA991
	rng := rand.New(rand.NewPCG(1, 2))
	cfg := Config{Seed: seed}
	shapes := applyShapes(seed)

	present := map[uint64]bool{}
	var gone []uint64 // removed earlier: candidates for coming back
	fresh := func() uint64 {
		for {
			if x := uint64(rng.Uint32()); x != 0 && !present[x] {
				return x
			}
		}
	}
	var elems []uint64
	for len(elems) < 4000 {
		x := fresh()
		present[x] = true
		elems = append(elems, x)
	}
	snap, err := NewSnapshot(elems, cfg)
	if err != nil {
		t.Fatal(err)
	}

	inheritedUncut := 0 // shapes a write reached while their groups were uncut
	for step := 0; step < 120; step++ {
		// Most generations serve a few of the shapes, so every shape spends
		// some generations behind before it is asked for again.
		for _, plan := range shapes {
			if rng.IntN(3) == 0 {
				snap.partitionFor(plan)
			}
		}
		size := 1 + rng.IntN(40)
		switch {
		case step%17 == 16:
			size = len(present) / 3 // a burst: re-base, rewrite, drop
		case step%29 == 28:
			size = 0 // an empty batch is a valid batch
		}
		var add, remove []uint64
		live := make([]uint64, 0, len(present))
		for x := range present {
			live = append(live, x)
		}
		slices.Sort(live) // map order must not leak into the seeded run
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		for i := 0; i < size; i++ {
			switch {
			case i%2 == 0 && i/2 < len(live):
				remove = append(remove, live[i/2])
			case len(gone) > 0 && rng.IntN(2) == 0:
				add = append(add, gone[len(gone)-1])
				gone = gone[:len(gone)-1]
			default:
				add = append(add, fresh())
			}
		}
		add = slices.Compact(sortedU64(add))
		for _, x := range remove {
			delete(present, x)
		}
		for _, x := range add {
			present[x] = true
		}
		gone = append(gone, remove...)
		inheritedUncut += snap.uncutShapes()
		snap = snap.Apply(add, remove)

		truth := make([]uint64, 0, len(present))
		for x := range present {
			truth = append(truth, x)
		}
		want, err := NewSnapshot(truth, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Len() != want.Len() {
			t.Fatalf("step %d: Len %d, want %d", step, snap.Len(), want.Len())
		}
		for _, plan := range shapes {
			// Checking a shape brings it up to date, so only some are checked
			// each step; all are on the last.
			if rng.IntN(2) == 0 && step != 119 {
				continue
			}
			assertSamePartition(t, plan, snap.partitionFor(plan), want, rng.IntN(2) == 0 || step == 119)
		}
		if step%10 == 9 {
			if !slices.Equal(snap.Elements(), want.Elements()) {
				t.Fatalf("step %d: Elements diverge from a fresh build", step)
			}
			for _, x := range add {
				if !snap.Contains(x) {
					t.Fatalf("step %d: added %#x not contained", step, x)
				}
			}
			for _, x := range remove {
				if snap.Contains(x) {
					t.Fatalf("step %d: removed %#x still contained", step, x)
				}
			}
		}
	}
	if inheritedUncut == 0 {
		t.Fatal("no write reached a shape with uncut groups: the test exercises nothing")
	}
}

// TestApplySessionsWireIdentical reconciles from a snapshot grown by Apply
// and from one built afresh from the same elements, against the same peer:
// every message in both directions must be byte-identical, with the table
// and without it.
func TestApplySessionsWireIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	var a, b []uint64
	seen := map[uint64]bool{0: true}
	draw := func() uint64 {
		for {
			if x := uint64(rng.Uint32()); !seen[x] {
				seen[x] = true
				return x
			}
		}
	}
	for i := 0; i < 6000; i++ {
		x := draw()
		a, b = append(a, x), append(b, x)
	}
	for i := 0; i < 40; i++ {
		b = append(b, draw())
	}
	for _, plan := range []Plan{planFor(t, 60, 5), planFor(t, 4000, 5)} {
		cfg := Config{Seed: plan.Seed, SigBits: plan.SigBits}
		grown, err := NewSnapshot(a[:5000], cfg)
		if err != nil {
			t.Fatal(err)
		}
		grown.partitionFor(plan) // the shape must be inherited, not folded anew
		for lo := 5000; lo < 6000; lo += 125 {
			// Each batch also removes an element and puts it back in the next.
			grown = grown.Apply(a[lo:lo+125], a[lo-5000:lo-4999])
			grown = grown.Apply(a[lo-5000:lo-4999], nil)
			if lo%500 == 0 {
				grown.partitionFor(plan)
			}
		}
		built, err := NewSnapshot(a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if (plan.Groups < 100) != (built.partitionFor(plan).table != nil) {
			t.Fatalf("G=%d: unexpected table budget outcome", plan.Groups)
		}
		var transcripts [2][][]byte
		for i, snap := range []*Snapshot{grown, built} {
			alice, err := NewAliceFromSnapshot(snap, plan)
			if err != nil {
				t.Fatal(err)
			}
			bob, err := NewBob(b, plan)
			if err != nil {
				t.Fatal(err)
			}
			for !alice.Done() {
				msg, err := alice.BuildRound()
				if err != nil {
					t.Fatal(err)
				}
				reply, err := bob.HandleRound(msg)
				if err != nil {
					t.Fatal(err)
				}
				if err := alice.AbsorbReply(reply); err != nil {
					t.Fatal(err)
				}
				transcripts[i] = append(transcripts[i], msg, reply)
			}
			assertSameSet(t, alice.Difference(), b[6000:])
		}
		if len(transcripts[0]) != len(transcripts[1]) {
			t.Fatalf("G=%d: %d messages from the grown snapshot, %d from the built one", plan.Groups, len(transcripts[0]), len(transcripts[1]))
		}
		for i := range transcripts[0] {
			if !bytes.Equal(transcripts[0][i], transcripts[1][i]) {
				t.Fatalf("G=%d: message %d differs between the grown and the built snapshot", plan.Groups, i)
			}
		}
	}
}

// retainedTableWords sums the round-one tables of s's cached shapes.
func (s *Snapshot) retainedTableWords() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var words uint64
	for _, sh := range s.shapes {
		if sh.table != nil {
			words += tableWords(len(sh.table.rows), sh.table.m)
		}
	}
	return words
}

// retainedFoldWords sums the round-one tables of s's cached shapes and the
// later-round rows charged to s, 2^m words a row as tableWords counts them,
// read off the rows themselves rather than their running count.
func (s *Snapshot) retainedFoldWords() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var words uint64
	for _, sh := range s.shapes {
		if sh.table != nil {
			words += tableWords(len(sh.table.rows), sh.table.m)
		}
		c := &sh.cut.rows
		c.mu.Lock()
		if c.owner == s.log {
			for k := range c.rows {
				words += uint64(1) << k.m
			}
		}
		c.mu.Unlock()
	}
	return words
}

// keptRows returns the later-round rows p's shape keeps.
func (p partition) keptRows() map[rowKey]*foldRow {
	c := &p.cut.rows
	c.mu.Lock()
	defer c.mu.Unlock()
	return maps.Clone(c.rows)
}

// foldOf returns the fold of set under seed at degree m.
func foldOf(set []uint64, seed uint64, m uint) foldRow {
	n := (uint64(1) << m) - 1
	r := foldRow{sums: make([]uint64, n+1), parity: make([]uint64, parityWords(n))}
	binFold(set, seed, n, r.sums, r.parity)
	return r
}

// assertFreshRows requires every later-round row p keeps to fold a group
// whose base is larger than the row and to equal a fresh fold of that base
// at the row's (round, m). It returns how many rows it checked.
func assertFreshRows(t *testing.T, sd seeds, p partition) int {
	t.Helper()
	bases := p.cut.bases()
	rows := p.keptRows()
	for k, r := range rows {
		if !rowPays(bases[k.g], k.m) {
			t.Fatalf("group %d of %d elements keeps a row of 2^%d words", k.g, len(bases[k.g]), k.m)
		}
		if !sameRow(*r, foldOf(bases[k.g], sd.binSeed(newScopeID(k.g), k.round), k.m)) {
			t.Fatalf("group %d's row at round %d, m=%d differs from a fresh fold of its base", k.g, k.round, k.m)
		}
	}
	return len(rows)
}

// laterRound builds round `round` of a session over snap in which every
// group is still whole, as if each had survived the rounds before, and has
// a Bob over snap answer it: both read each group's row at (round, plan.M)
// where the shape keeps one, and fold and offer one where it would pay. It
// returns the message and the reply.
func laterRound(snap *Snapshot, plan Plan, round int) (msg, reply []byte, err error) {
	alice, err := NewAliceFromSnapshot(snap, plan)
	if err != nil {
		return nil, nil, err
	}
	alice.round = round - 1
	if msg, err = alice.BuildRound(); err != nil {
		return nil, nil, err
	}
	bob, err := NewBobFromSnapshot(snap, plan)
	if err != nil {
		return nil, nil, err
	}
	reply, err = bob.HandleRound(msg)
	return msg, reply, err
}

// refRound is laterRound over endpoints that read a refCut of elems, which
// keeps no rows: every scope is folded whole.
func refRound(t *testing.T, elems []uint64, plan Plan, round int) (msg, reply []byte) {
	t.Helper()
	snap := newSnapOf(t, elems, plan.Seed)
	ref := refCut(snap, plan.Groups)
	alice, err := NewAliceFromSnapshot(snap, plan)
	if err != nil {
		t.Fatal(err)
	}
	alice.part, alice.round = ref, round-1
	if msg, err = alice.BuildRound(); err != nil {
		t.Fatal(err)
	}
	bob, err := NewBobFromSnapshot(snap, plan)
	if err != nil {
		t.Fatal(err)
	}
	bob.part = ref
	if reply, err = bob.HandleRound(msg); err != nil {
		t.Fatal(err)
	}
	return msg, reply
}

// assertFreshTable requires the table of got, each group's lag folded on
// top of its row, to equal row for row one folded from a fresh cut of snap.
func assertFreshTable(t *testing.T, snap *Snapshot, plan Plan, got partition) {
	t.Helper()
	if got.table == nil {
		t.Fatalf("G=%d m=%d: no round-one table", plan.Groups, plan.M)
	}
	want := buildFoldTable(refCut(snap, plan.Groups), plan.M, snap.sd, 1)
	for g, w := range want.rows {
		if !sameRow(got.laggedRow(snap.sd, g), w) {
			t.Fatalf("G=%d m=%d: table row %d with its lag on top differs from a fresh fold", plan.Groups, plan.M, g)
		}
	}
}

// eagerSnapshot caches on snap, for plan, a refCut of it with the
// round-one table folded from the cut, and returns snap: an endpoint built
// over it reads the reference partition, which a folded shape's messages
// must match byte for byte.
func eagerSnapshot(snap *Snapshot, plan Plan) *Snapshot {
	part := refCut(snap, plan.Groups)
	part.table = buildFoldTable(part, plan.M, snap.sd, 1)
	snap.mu.Lock()
	snap.shapes[plan.Groups] = shape{partition: part}
	snap.mu.Unlock()
	return snap
}

// eagerBob returns a Bob over eagerSnapshot(snap, plan).
func eagerBob(t *testing.T, snap *Snapshot, plan Plan) *Bob {
	t.Helper()
	bob, err := NewBobFromSnapshot(eagerSnapshot(snap, plan), plan)
	if err != nil {
		t.Fatal(err)
	}
	return bob
}

// newSnapOf returns a snapshot of a copy of elems under seed.
func newSnapOf(t *testing.T, elems []uint64, seed uint64) *Snapshot {
	t.Helper()
	snap, err := NewSnapshot(elems, Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestRoundOneTableBudget holds partitionFor to its table rule and its
// ceiling: a shape over |S| gets its table on the second read, a shape
// within tableFits on its first; either way a successor inherits the table
// and shares every row no base rewrite touched, the rows with their lags on
// top reading as a fresh fold; and however many forged shapes are read
// twice, concurrently, or however far a write shrinks the set, the tables a
// snapshot retains total at most maxCachedShapes·|S| words. Every shape is
// folded on its first read, with or without its table, and read against
// refCut: it stays uncut under round-one sessions, reads as refCut once a
// write, an Alice or concurrent round twos cut it, answers byte for byte as
// refCut does when the fold would fan out, and stays cached with its groups
// when its table is dropped.
func TestRoundOneTableBudget(t *testing.T) {
	rng := rand.New(rand.NewPCG(36, 1))
	seen := map[uint64]bool{0: true}
	draw := func() uint64 {
		for {
			if x := uint64(rng.Uint32()); !seen[x] {
				seen[x] = true
				return x
			}
		}
	}
	elems := make([]uint64, 2000)
	for i := range elems {
		elems[i] = draw()
	}
	const seed = 0x7AB1
	shape := func(groups int, m uint) Plan {
		return Plan{M: m, T: 5, Groups: groups, MaxRounds: DefaultMaxRounds, SigBits: 32, Seed: seed, Parallelism: 1}
	}
	newSnap := func() *Snapshot { return newSnapOf(t, elems, seed) }
	over, fitting := shape(35, 6), shape(7, 6) // 2,240 and 448 words on 2,000 elements

	t.Run("over-size/second-read", func(t *testing.T) {
		snap := newSnap()
		if snap.tableFits(over.Groups, over.M) {
			t.Fatal("the shape must be over |S|")
		}
		first := snap.partitionFor(over)
		if first.table != nil {
			t.Fatal("first read kept a table over |S|")
		}
		second := snap.partitionFor(over)
		assertFreshTable(t, snap, over, second)
		if second.cut != first.cut {
			t.Fatal("the second read folded the groups afresh instead of cutting the first read's")
		}
		if snap.partitionFor(over).table != snap.partitionFor(over).table {
			t.Fatal("later reads rebuild the table instead of sharing it")
		}
	})

	t.Run("over-size/apply-keeps", func(t *testing.T) {
		snap := newSnap()
		snap.partitionFor(over)
		held := snap.partitionFor(over)
		rows := cloneRows(held.table)
		// Five writes over 35 groups of about 57 rewrite no base, so no row
		// is copied.
		next := snap.Apply([]uint64{draw(), draw(), draw()}, elems[:2])
		if words, want := next.retainedTableWords(), tableWords(over.Groups, over.M); words != want {
			t.Fatalf("the successor inherited %d table words, want the predecessor's %d", words, want)
		}
		got := next.partitionFor(over)
		assertFreshTable(t, next, over, got)
		for g, r := range got.table.rows {
			if &r.sums[0] != &held.table.rows[g].sums[0] || &r.parity[0] != &held.table.rows[g].parity[0] {
				t.Fatalf("row %d was copied, though no write rewrote its base", g)
			}
		}
		for g, r := range snap.partitionFor(over).table.rows {
			if !sameRow(r, rows[g]) {
				t.Fatalf("row %d of the predecessor's table changed", g)
			}
		}
	})

	t.Run("apply/ceiling", func(t *testing.T) {
		snap := newSnap()
		// Three tables of 5,120–5,376 words: 15,744 in all, within the
		// ceiling of 8·2,000 but not within 8·1,780.
		for _, groups := range []int{40, 41, 42} {
			snap.partitionFor(shape(groups, 7))
			if snap.partitionFor(shape(groups, 7)).table == nil {
				t.Fatalf("G=%d: the second read kept no table", groups)
			}
		}
		next := snap.Apply(nil, elems[:220])
		ceiling := uint64(maxCachedShapes) * uint64(next.Len())
		if words := next.retainedTableWords(); words > ceiling || words < 10000 {
			t.Fatalf("the successor inherited %d table words, want two tables within its ceiling %d", words, ceiling)
		}
	})

	t.Run("forged-shapes/ceiling", func(t *testing.T) {
		snap := newSnap()
		ceiling := uint64(maxCachedShapes) * uint64(snap.Len())
		var plans []Plan
		for i := 0; i < 64; i++ {
			m := uint(5 + i%3) // tables from 0.6× |S| to past the ceiling
			if i%16 == 15 {
				m = 20 // one table alone past the ceiling: never built
			}
			plans = append(plans, shape(40+i*3, m))
		}
		var wg sync.WaitGroup
		var overKept atomic.Int32 // reads that got a table over |S|
		for w := 0; w < 4; w++ {
			order := rand.New(rand.NewPCG(36, uint64(w))).Perm(len(plans))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, i := range order {
					plan := plans[i]
					for read := 0; read < 2; read++ {
						p := snap.partitionFor(plan)
						if p.table != nil && tableWords(plan.Groups, plan.M) > ceiling {
							t.Errorf("G=%d m=%d: a table of %d words, over the ceiling %d", plan.Groups, plan.M, tableWords(plan.Groups, plan.M), ceiling)
						}
						if words := snap.retainedTableWords(); words > ceiling {
							t.Errorf("retained tables total %d words, ceiling %d", words, ceiling)
						}
						if p.table != nil && !snap.tableFits(plan.Groups, plan.M) {
							overKept.Add(1)
						}
					}
				}
			}()
		}
		wg.Wait()
		if overKept.Load() == 0 {
			t.Fatal("no forged shape over |S| ever got a table: the test exercises nothing")
		}
	})

	// A shape within tableFits is folded on its first read, its groups left
	// uncut. Its round one reads only rows, lags and checksums; a write, a
	// round two or a split cuts the groups, once.
	t.Run("folded/round-one-only", func(t *testing.T) {
		snap := newSnap()
		peer := append(slices.Clone(elems[4:]), draw(), draw(), draw())
		alice, err := NewAlice(peer, fitting)
		if err != nil {
			t.Fatal(err)
		}
		msg, err := alice.BuildRound()
		if err != nil {
			t.Fatal(err)
		}
		want, err := eagerBob(t, newSnap(), fitting).HandleRound(msg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			bob, err := NewBobFromSnapshot(snap, fitting)
			if err != nil {
				t.Fatal(err)
			}
			reply, err := bob.HandleRound(msg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(reply, want) {
				t.Fatalf("session %d: the folded shape's round-one reply differs from a cut one's", i)
			}
		}
		got := snap.partitionFor(fitting)
		if !got.uncut() {
			t.Fatal("round-one sessions cut the groups of a folded shape")
		}
		assertSamePartition(t, fitting, got, newSnap(), false)
		if !got.uncut() {
			t.Fatal("reading checksums and rows cut the groups")
		}
		assertSamePartition(t, fitting, got, newSnap(), true)
	})

	t.Run("folded/apply-first", func(t *testing.T) {
		snap := newSnap()
		held := snap.partitionFor(fitting)
		if !held.uncut() {
			t.Fatal("the first read did not fold the shape")
		}
		rows := cloneRows(held.table)
		// Enough writes in group 0 to rewrite its base (share: 2,000/7/8 + 8,
		// about 43), and a few elsewhere that only join lag lists.
		const g0 = 0
		var add []uint64
		for len(add) < 2000/fitting.Groups/lagFraction+lagFraction+4 {
			if x := draw(); snap.sd.groupOf(x, fitting.Groups) == g0 {
				add = append(add, x)
			}
		}
		add = append(add, draw(), draw())
		remove := elems[100:103]
		next := snap.Apply(add, remove)
		truth := slices.DeleteFunc(append(slices.Clone(elems), add...), func(x uint64) bool { return slices.Contains(remove, x) })
		fresh, err := NewSnapshot(truth, Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		got := next.partitionFor(fitting)
		if got.groups[g0].lag != nil {
			t.Fatalf("group %d kept a lag of %d past its share: no rewrite", g0, len(got.groups[g0].lag))
		}
		assertSamePartition(t, fitting, got, fresh, true)
		for g, r := range got.table.rows {
			if shared := &r.sums[0] == &held.table.rows[g].sums[0]; shared == (g == g0) {
				t.Fatalf("row %d shared=%v with the predecessor's table", g, shared)
			}
		}
		// The write cut the predecessor's groups and rewrote group 0 in a
		// fresh slice array: the predecessor's array, its slices and its
		// rows read as before, and only group 0's slice is not shared.
		before, after := held.cut.bases(), got.cut.bases()
		if &before[0] == &after[0] {
			t.Fatal("the successor rewrote group 0 in the predecessor's slice array")
		}
		ref := refCut(newSnap(), fitting.Groups).cut.bases()
		for g := range before {
			if !slices.Equal(before[g], ref[g]) || !sameRow(held.table.rows[g], rows[g]) {
				t.Fatalf("group %d of the predecessor's folded shape was written", g)
			}
			if shared := &after[g][0] == &before[g][0]; shared == (g == g0) {
				t.Fatalf("group %d's slice shared=%v with the predecessor's", g, shared)
			}
		}
		assertSamePartition(t, fitting, snap.partitionFor(fitting), newSnap(), true)
	})

	t.Run("folded/concurrent-round-two", func(t *testing.T) {
		snap := newSnap()
		if !snap.partitionFor(fitting).uncut() {
			t.Fatal("the first read did not fold the shape")
		}
		// 60 differences over 7 groups at t = 5: every group fails to decode
		// in round one, so every session splits Bob's groups in round two.
		var extra []uint64
		for len(extra) < 60 {
			extra = append(extra, draw())
		}
		peer := append(slices.Clone(elems), extra...)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				alice, err := NewAlice(peer, fitting)
				if err != nil {
					t.Error(err)
					return
				}
				bob, err := NewBobFromSnapshot(snap, fitting)
				if err != nil {
					t.Error(err)
					return
				}
				res, err := Drive(alice, bob, 0)
				if err != nil || !res.Complete || res.Stats.Rounds < 2 || !slices.Equal(sortedU64(res.Difference), sortedU64(extra)) {
					t.Errorf("session over the folded shape: err=%v complete=%v", err, res != nil && res.Complete)
				}
			}()
		}
		wg.Wait()
		got := snap.partitionFor(fitting)
		if got.uncut() {
			t.Fatal("round two left the groups uncut")
		}
		assertSamePartition(t, fitting, got, newSnap(), true)
	})

	t.Run("folded/no-table", func(t *testing.T) {
		snap := newSnap()
		got := snap.partitionFor(over)
		if got.table != nil || !got.uncut() {
			t.Fatalf("the first read of a shape over |S| kept a table=%v, cut=%v", got.table != nil, !got.uncut())
		}
		assertSamePartition(t, over, got, newSnap(), false)
		if !got.uncut() {
			t.Fatal("reading checksums cut the groups")
		}
		assertSamePartition(t, over, got, newSnap(), true)
	})

	// |S| + G·2^m ≥ 2^15: a phase of that size fans out, but the fold that
	// builds the shape is one pass whatever the plan's Parallelism.
	t.Run("folded/fan-out", func(t *testing.T) {
		big := slices.Clone(elems)
		for len(big) < 30000 {
			big = append(big, draw())
		}
		peer := slices.Clone(big[300:])
		for i := 0; i < 300; i++ {
			peer = append(peer, draw())
		}
		for _, par := range []int{0, 4} {
			plan := shape(100, 8) // 25,600 words on 30,000 elements
			plan.Parallelism = par
			snap, err := NewSnapshot(big, Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if !snap.tableFits(plan.Groups, plan.M) || snap.Len()+plan.Groups<<plan.M < 1<<15 {
				t.Fatal("the shape must fit |S| and be big enough to fan out")
			}
			bob, err := NewBobFromSnapshot(snap, plan)
			if err != nil {
				t.Fatal(err)
			}
			if !bob.part.uncut() {
				t.Fatalf("Parallelism %d: the first read cut the groups", par)
			}
			ref := eagerBob(t, newSnapOf(t, big, seed), plan)
			alice, err := NewAlice(peer, plan)
			if err != nil {
				t.Fatal(err)
			}
			rounds := 0
			for ; !alice.Done(); rounds++ {
				msg, err := alice.BuildRound()
				if err != nil {
					t.Fatal(err)
				}
				reply, err := bob.HandleRound(msg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.HandleRound(msg)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(reply, want) {
					t.Fatalf("Parallelism %d: round %d's reply differs from refCut's", par, rounds+1)
				}
				if err := alice.AbsorbReply(reply); err != nil {
					t.Fatal(err)
				}
			}
			if rounds < 2 {
				t.Fatalf("Parallelism %d: the session ended after %d round(s): no round two read the groups", par, rounds)
			}
			assertSameSet(t, alice.Difference(), append(slices.Clone(big[:300]), peer[len(peer)-300:]...))
		}
	})

	t.Run("folded/alice-first", func(t *testing.T) {
		peer := append(slices.Clone(elems[4:]), draw(), draw(), draw())
		snap := newSnap()
		alice, err := NewAliceFromSnapshot(snap, fitting)
		if err != nil {
			t.Fatal(err)
		}
		if alice.part.table == nil {
			t.Fatal("Alice's first read kept no table within |S|")
		}
		ref, err := NewAliceFromSnapshot(eagerSnapshot(newSnap(), fitting), fitting)
		if err != nil {
			t.Fatal(err)
		}
		msg, err := alice.BuildRound()
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.BuildRound()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(msg, want) {
			t.Fatal("Alice's round-one message over a folded shape differs from refCut's")
		}
		bob, err := NewBob(peer, fitting)
		if err != nil {
			t.Fatal(err)
		}
		reply, err := bob.HandleRound(msg)
		if err != nil {
			t.Fatal(err)
		}
		if err := alice.AbsorbReply(reply); err != nil {
			t.Fatal(err)
		}
		res, err := Drive(alice, bob, 0)
		if err != nil || !res.Complete {
			t.Fatalf("session over the folded shape: err=%v", err)
		}
		assertSameSet(t, res.Difference, append(slices.Clone(elems[:4]), peer[len(peer)-3:]...))
		assertSamePartition(t, fitting, snap.partitionFor(fitting), newSnap(), true)
	})

	// A table dropped from a folded shape takes nothing else with it: the
	// shape stays cached, its groups uncut until a reader needs them, and
	// Apply inherits it.
	t.Run("folded/table-dropped", func(t *testing.T) {
		snap := newSnap()
		folded := snap.partitionFor(fitting)
		rows := cloneRows(folded.table)
		narrow, wide := shape(fitting.Groups, 5), shape(fitting.Groups, 12) // 224 words; 28,672, past the ceiling
		if got := snap.partitionFor(wide); got.table != nil || got.cut != folded.cut || !got.uncut() {
			t.Fatal("a read at a degree with no room for its table did not read the folded groups, uncut")
		}
		if snap.partitionFor(fitting).table != folded.table {
			t.Fatal("a read at a degree with no room dropped the cached table")
		}
		got := snap.partitionFor(narrow)
		if got.cut != folded.cut {
			t.Fatal("the read at another degree folded the groups afresh")
		}
		assertFreshTable(t, snap, narrow, got)
		for g := range rows {
			if !sameRow(folded.table.rows[g], rows[g]) {
				t.Fatalf("row %d of the replaced table changed", g)
			}
		}
		next := snap.Apply([]uint64{draw(), draw()}, elems[5:8])
		assertSamePartition(t, narrow, next.partitionFor(narrow), newSnapOf(t, next.Elements(), seed), true)

		// Four tables of 14,656 words in all, within 8·2,000 but not within
		// the successor's 8·1,780: Apply drops at least one table and
		// inherits every shape.
		snap = newSnap()
		plans := []Plan{fitting, shape(40, 7), shape(41, 7), shape(30, 7)}
		for _, plan := range plans {
			snap.partitionFor(plan)
			if snap.partitionFor(plan).table == nil {
				t.Fatalf("G=%d: the second read kept no table", plan.Groups)
			}
		}
		next = snap.Apply(nil, elems[:220])
		next.mu.Lock()
		inherited, dropped := len(next.shapes), 0
		for _, sh := range next.shapes {
			if sh.table == nil {
				dropped++
			}
		}
		next.mu.Unlock()
		if inherited != len(plans) || dropped == 0 {
			t.Fatalf("the successor inherited %d of %d shapes, %d without a table; want all, at least one without", inherited, len(plans), dropped)
		}
		fresh := newSnapOf(t, elems[220:], seed)
		for _, plan := range plans {
			got := next.partitionFor(plan)
			assertSameGroups(t, plan, got, fresh, true)
			if got.table != nil {
				assertFreshTable(t, next, plan, got)
			}
		}
	})

	t.Run("fitting/maintained", func(t *testing.T) {
		snap := newSnap()
		first := snap.partitionFor(fitting)
		assertFreshTable(t, snap, fitting, first)
		// Five writes over seven groups of about 285 rewrite no base: every
		// row is shared with the predecessor, which a rebuilt table's would
		// not be.
		next := snap.Apply([]uint64{draw(), draw()}, elems[5:8])
		got := next.partitionFor(fitting)
		assertFreshTable(t, next, fitting, got)
		for g, r := range got.table.rows {
			if &r.sums[0] != &first.table.rows[g].sums[0] {
				t.Fatalf("row %d is not shared with the predecessor: the table was rebuilt or copied", g)
			}
		}
	})
}

// TestLaterRowBudget holds the later-round rows to their rule and to the
// ceiling they share with the round-one tables: a group whose base is no
// larger than a row keeps none; and however many later rounds four sessions
// at a time fold over a snapshot's shapes beside their tables, the tables
// and the rows charged to it total at most maxCachedShapes·|S| words, on the
// snapshot and on a successor that shrank it and took the rows over; and a
// shape the snapshot no longer caches keeps no more rows.
func TestLaterRowBudget(t *testing.T) {
	c := newChurn(2000, 59)
	const seed = 0xB0D6
	shape := func(groups int, m uint) Plan {
		return Plan{M: m, T: 5, Groups: groups, MaxRounds: DefaultMaxRounds, SigBits: 32, Seed: seed, Parallelism: 1}
	}
	cfg := Config{Seed: seed}

	t.Run("pays", func(t *testing.T) {
		snap := c.snapshot(t, cfg)
		plan := shape(30, 6) // groups of about 67 elements, rows of 64 words
		for round := 2; round <= 3; round++ {
			if _, _, err := laterRound(snap, plan, round); err != nil {
				t.Fatal(err)
			}
		}
		p := snap.partitionFor(plan)
		kept := map[int]int{}
		for k := range p.keptRows() {
			kept[k.g]++
		}
		small, large := 0, 0
		for g, base := range p.cut.bases() {
			switch {
			case !rowPays(base, plan.M):
				small++
				if kept[g] > 0 {
					t.Fatalf("group %d of %d elements keeps %d rows of 2^%d words", g, len(base), kept[g], plan.M)
				}
			case kept[g] != 2:
				t.Fatalf("group %d of %d elements keeps %d rows, want one a round", g, len(base), kept[g])
			default:
				large++
			}
		}
		if small == 0 || large == 0 {
			t.Fatalf("%d groups within a row and %d past it: the shape must have both", small, large)
		}
		assertFreshRows(t, snap.sd, p)
	})

	t.Run("ceiling", func(t *testing.T) {
		snap := c.snapshot(t, cfg)
		ceiling := uint64(maxCachedShapes) * uint64(snap.Len())
		// A table within |S|, one past it (read twice), and rows of 64 and
		// 128 words on groups of about 285 and 166: far more rows than fit.
		plans := []Plan{shape(7, 6), shape(35, 6), shape(12, 7)}
		snap.partitionFor(plans[1])
		for _, plan := range plans {
			if snap.partitionFor(plan).table == nil {
				t.Fatalf("G=%d: no round-one table", plan.Groups)
			}
		}
		fill := func(snap *Snapshot, ceiling uint64) {
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				order := rand.New(rand.NewPCG(59, uint64(w))).Perm(3 * 40)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, i := range order {
						if _, _, err := laterRound(snap, plans[i%3], 2+i/3); err != nil {
							t.Error(err)
							return
						}
						if words := snap.retainedFoldWords(); words > ceiling {
							t.Errorf("tables and rows total %d words, ceiling %d", words, ceiling)
							return
						}
					}
				}()
			}
			wg.Wait()
		}
		fill(snap, ceiling)
		if words := snap.retainedFoldWords(); words+1<<7 < ceiling {
			t.Fatalf("tables and rows total %d words: the rows stopped short of the ceiling %d", words, ceiling)
		}
		for _, plan := range plans {
			p := snap.partitionFor(plan)
			if p.table == nil {
				t.Fatalf("G=%d: the rows crowded out a table built before them", plan.Groups)
			}
			assertFreshRows(t, snap.sd, p)
		}

		next := snap.Apply(nil, c.live[:220])
		nextCeiling := uint64(maxCachedShapes) * uint64(next.Len())
		for _, plan := range plans {
			next.partitionFor(plan)
		}
		if words := next.retainedFoldWords(); words > nextCeiling {
			t.Fatalf("the successor took over %d words of tables and rows, ceiling %d", words, nextCeiling)
		}
		fill(next, nextCeiling)
		if words := snap.retainedFoldWords(); words > ceiling {
			t.Fatalf("the predecessor is charged %d words, ceiling %d", words, ceiling)
		}
		for _, plan := range plans {
			assertFreshRows(t, next.sd, next.partitionFor(plan))
		}
	})

	// A session that holds a shape the snapshot has since evicted keeps no
	// row in it: the row would be charged to the snapshot and counted by
	// none of its shapes.
	t.Run("evicted", func(t *testing.T) {
		plan := shape(7, 6)
		msg, _, err := laterRound(c.snapshot(t, cfg), plan, 2)
		if err != nil {
			t.Fatal(err)
		}
		snap := c.snapshot(t, cfg)
		bob, err := NewBobFromSnapshot(snap, plan)
		if err != nil {
			t.Fatal(err)
		}
		for groups := 8; ; groups++ {
			snap.partitionFor(shape(groups, 6))
			snap.mu.Lock()
			_, cached := snap.shapes[plan.Groups]
			snap.mu.Unlock()
			if !cached {
				break
			}
		}
		if _, err := bob.HandleRound(msg); err != nil {
			t.Fatal(err)
		}
		if rows := bob.part.keptRows(); len(rows) > 0 {
			t.Fatalf("a session over an evicted shape kept %d rows in it", len(rows))
		}
	})
}

// TestTableRowRebasedAtRewrite pushes one group's lag list past its share
// (base/lagFraction + lagFraction) in two batches under a table kept past
// |S|. The first batch leaves the row shared and the lag on top of it; the
// second rewrites the group's base, and the row must be refreshed with it:
// equal to a fresh fold of the new base, a copy rather than the
// predecessor's row, while every other row stays shared. Sessions read the
// predecessor's table throughout, and its rows must read as before (run
// under -race, which also flags a write the comparison would miss).
func TestTableRowRebasedAtRewrite(t *testing.T) {
	rng := rand.New(rand.NewPCG(40, 2))
	seen := map[uint64]bool{0: true}
	draw := func() uint64 {
		for {
			if x := uint64(rng.Uint32()); !seen[x] {
				seen[x] = true
				return x
			}
		}
	}
	elems := make([]uint64, 2000)
	for i := range elems {
		elems[i] = draw()
	}
	var extra []uint64
	for i := 0; i < 12; i++ {
		extra = append(extra, draw())
	}
	plan := Plan{M: 6, T: 5, Groups: 35, MaxRounds: DefaultMaxRounds, SigBits: 32, Seed: 0x40B, Parallelism: 2}
	snap, err := NewSnapshot(elems, Config{Seed: plan.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if snap.tableFits(plan.Groups, plan.M) {
		t.Fatal("the shape must be over |S|")
	}
	snap.partitionFor(plan)
	held := snap.partitionFor(plan)
	if held.table == nil {
		t.Fatal("the second read kept no table")
	}
	rows := cloneRows(held.table)

	// Writes that all land in group 0: enough to pass its share in two
	// batches, neither of which passes it alone.
	const g0 = 0
	base := held.group(g0).base
	share := len(base)/lagFraction + lagFraction
	var writes []uint64
	for len(writes) <= share {
		if x := draw(); snap.sd.groupOf(x, plan.Groups) == g0 {
			writes = append(writes, x)
		}
	}
	// A removal rides along in the second batch.
	first, second := writes[:share/2], writes[share/2:]
	removed := base[len(base)/2]

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				alice, err := NewAliceFromSnapshot(snap, plan)
				if err != nil {
					t.Error(err)
					return
				}
				bob, err := NewBob(append(slices.Clone(elems), extra...), plan)
				if err != nil {
					t.Error(err)
					return
				}
				res, err := Drive(alice, bob, 0)
				if err != nil || !res.Complete || !slices.Equal(sortedU64(res.Difference), sortedU64(extra)) {
					t.Errorf("session on the predecessor failed: err=%v", err)
					return
				}
			}
		}()
	}

	mid := snap.Apply(first, nil)
	lagged := mid.partitionFor(plan)
	if len(lagged.groups[g0].lag) != len(first) {
		t.Errorf("group %d has %d lagged elements after the first batch, want %d", g0, len(lagged.groups[g0].lag), len(first))
	}
	if lagged.table != held.table {
		t.Error("the first batch copied the table, though it rewrote no base")
	}
	assertFreshTable(t, mid, plan, lagged)

	next := mid.Apply(second, []uint64{removed})
	got := next.partitionFor(plan)
	slot := got.groups[g0]
	if slot.lag != nil {
		t.Fatalf("group %d kept a lag of %d past its share of %d: no rewrite", g0, len(slot.lag), share)
	}
	n := (uint64(1) << plan.M) - 1
	want := foldRow{sums: make([]uint64, n+1), parity: make([]uint64, parityWords(n))}
	binFold(got.group(g0).base, snap.sd.binSeed(newScopeID(g0), 1), n, want.sums, want.parity)
	if !sameRow(got.table.rows[g0], want) {
		t.Fatalf("row %d differs from a fresh fold of its rewritten base", g0)
	}
	if &got.table.rows[g0].sums[0] == &held.table.rows[g0].sums[0] {
		t.Fatalf("row %d was rebased in place, under the predecessor's sessions", g0)
	}
	for g, r := range got.table.rows {
		if g != g0 && &r.sums[0] != &held.table.rows[g].sums[0] {
			t.Fatalf("row %d was copied, though its base was not rewritten", g)
		}
	}
	assertFreshTable(t, next, plan, got)
	wg.Wait()

	for g, r := range snap.partitionFor(plan).table.rows {
		if !sameRow(r, rows[g]) || !sameRow(held.table.rows[g], rows[g]) {
			t.Fatalf("row %d of the predecessor's table changed", g)
		}
	}
}

// TestShapeRowsMatchFreshFold fills the later-round rows of a shape and
// requires every row it serves to equal a fresh fold of its group's base at
// the row's (round, m), and every later round over it to send and answer
// the bytes a round over refCut does. It does so along an Apply chain whose
// successors inherit the rows, through the absorb that rewrites a group's
// base (its rows rebased in a fresh cut, the predecessor's left as they
// were) and the re-base that starts a new log; and with four goroutines
// filling the same rows, two over a snapshot and two over its successor,
// which takes the rows over (run under -race).
func TestShapeRowsMatchFreshFold(t *testing.T) {
	c := newChurn(4000, 58)
	plan := Plan{M: 6, T: 5, Groups: 7, MaxRounds: DefaultMaxRounds, SigBits: 32, Seed: 0x2047, Parallelism: 2}
	cfg := Config{Seed: plan.Seed}
	check := func(t *testing.T, snap *Snapshot, round int) int {
		t.Helper()
		msg, reply, err := laterRound(snap, plan, round)
		if err != nil {
			t.Fatal(err)
		}
		wantMsg, wantReply := refRound(t, snap.Elements(), plan, round)
		if !bytes.Equal(msg, wantMsg) || !bytes.Equal(reply, wantReply) {
			t.Fatalf("round %d over kept rows: message equal=%v, reply equal=%v to refCut's", round, bytes.Equal(msg, wantMsg), bytes.Equal(reply, wantReply))
		}
		p := snap.partitionFor(plan)
		assertSameGroups(t, plan, p, newSnapOf(t, snap.Elements(), plan.Seed), true)
		return assertFreshRows(t, snap.sd, p)
	}

	t.Run("apply-chain", func(t *testing.T) {
		snap := c.snapshot(t, cfg)
		rewrites, rebases := 0, 0
		for i := 0; i < 30; i++ {
			if check(t, snap, 2+i%3) == 0 {
				t.Fatalf("step %d: the shape keeps no later-round rows", i)
			}
			held := snap.partitionFor(plan)
			rows := held.keptRows()
			next := snap.Apply(c.next(100))
			got := next.partitionFor(plan)
			if next.log.prev == nil {
				rebases++
			}
			rewritten := map[int]bool{}
			for g, base := range got.cut.bases() {
				old := held.cut.bases()[g]
				rewritten[g] = len(base) != len(old) || len(base) > 0 && &base[0] != &old[0]
			}
			gotRows := got.keptRows()
			for k, r := range rows {
				kept := gotRows[k]
				if kept == nil {
					t.Fatalf("step %d: group %d's row at round %d is gone after the write", i, k.g, k.round)
				}
				if shared := &kept.sums[0] == &r.sums[0]; shared == rewritten[k.g] {
					t.Fatalf("step %d: group %d's row shared=%v with the predecessor's, rewritten=%v", i, k.g, shared, rewritten[k.g])
				}
				if rewritten[k.g] {
					rewrites++
				}
			}
			// The predecessor's rows still fold its own bases.
			assertFreshRows(t, snap.sd, held)
			snap = next
		}
		if rewrites == 0 || rebases == 0 {
			t.Fatalf("the chain saw %d group rewrites under kept rows and %d re-bases: it exercises nothing", rewrites, rebases)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		snap := c.snapshot(t, cfg)
		next := snap.Apply(c.next(40))
		snaps := []*Snapshot{snap, snap, next, next}
		type want struct{ msg, reply []byte }
		wants := make([][]want, len(snaps))
		for i, s := range snaps {
			for round := 2; round <= 5; round++ {
				msg, reply := refRound(t, s.Elements(), plan, round)
				wants[i] = append(wants[i], want{msg, reply})
			}
		}
		var wg sync.WaitGroup
		for i, s := range snaps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < 3; rep++ {
					for round := 2; round <= 5; round++ {
						msg, reply, err := laterRound(s, plan, round)
						if err != nil {
							t.Error(err)
							return
						}
						if w := wants[i][round-2]; !bytes.Equal(msg, w.msg) || !bytes.Equal(reply, w.reply) {
							t.Errorf("goroutine %d, round %d: the bytes differ from refCut's", i, round)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		if check(t, next, 2) == 0 {
			t.Fatal("the successor keeps no later-round rows")
		}
		assertFreshRows(t, snap.sd, snap.partitionFor(plan))
	})
}

// TestSnapshotViewsImmutableUnderApply runs sessions on a snapshot while
// successors are applied and brought up to date beside it. Whatever a
// session holds — group slices, lag lists, checksums, table rows — must
// read the same afterwards: Apply copies what it changes, and an endpoint
// never writes to, pools, or clears a row it shares. Run under -race, which
// also flags any such write the comparison would miss.
func TestSnapshotViewsImmutableUnderApply(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	seen := map[uint64]bool{0: true}
	draw := func() uint64 {
		for {
			if x := uint64(rng.Uint32()); !seen[x] {
				seen[x] = true
				return x
			}
		}
	}
	var common, extra []uint64
	for i := 0; i < 8000; i++ {
		common = append(common, draw())
	}
	for i := 0; i < 4000; i++ {
		extra = append(extra, draw())
	}
	peer := append(slices.Clone(common), extra[:30]...)
	plan := planFor(t, 45, 11)
	plan.Parallelism = 2
	cfg := Config{Seed: plan.Seed, SigBits: plan.SigBits}
	root, err := NewSnapshot(common, cfg)
	if err != nil {
		t.Fatal(err)
	}
	held := root.partitionFor(plan)
	if held.table == nil {
		t.Fatal("the test needs a shape within the table budget")
	}
	var groups [][]uint64
	var checks []uint64
	for g := range held.groups {
		groups = append(groups, held.merged(g))
		checks = append(checks, held.groups[g].check)
	}
	rows := cloneRows(held.table)

	reconcile := func(snap *Snapshot, want []uint64) {
		alice, err := NewAliceFromSnapshot(snap, plan)
		if err != nil {
			t.Error(err)
			return
		}
		bob, err := NewBob(peer, plan)
		if err != nil {
			t.Error(err)
			return
		}
		res, err := Drive(alice, bob, 0)
		if err != nil || !res.Complete {
			t.Errorf("session failed: complete=%v err=%v", res != nil && res.Complete, err)
			return
		}
		if !slices.Equal(sortedU64(res.Difference), sortedU64(want)) {
			t.Errorf("session learned %d elements, want %d", len(res.Difference), len(want))
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				reconcile(root, extra[:30])
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		snap, in := root, 30 // extra[30:in] has been added on top of common
		for j := 0; j < 40; j++ {
			snap = snap.Apply(extra[in:in+10], nil)
			in += 10
			want := append(slices.Clone(extra[:30]), extra[30:in]...)
			reconcile(snap, want)
		}
	}()
	wg.Wait()

	after := root.partitionFor(plan)
	for g := range groups {
		if !slices.Equal(after.merged(g), groups[g]) || held.groups[g].check != checks[g] || after.groups[g].check != checks[g] {
			t.Fatalf("group %d of a held snapshot changed", g)
		}
		if !sameRow(held.table.rows[g], rows[g]) {
			t.Fatalf("table row %d of a held snapshot changed", g)
		}
	}
}
