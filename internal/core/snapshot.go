package core

import (
	"fmt"
	"slices"
	"sync"

	"pbs/internal/hashutil"
)

// Snapshot is an immutable, pre-validated view of one party's set, built
// once and shared by any number of concurrent endpoints. A server holding
// a large set and answering thousands of reconciliation sessions pays the
// O(|S|) validation (zero/range/duplicate checks) a single time, and the
// per-plan group partition — plus the round-one fold table (see foldTable)
// for a shape that fits the set's size or that a session reads a second
// time (see partitionFor) — is computed once per distinct shape and then
// shared read-only. A shape is built in one pass over the sorted elements,
// which sums each group's checksum and, with a first-read table, folds its
// rows; the group slices are cut only when a session or a write first
// needs them (see lazyCut): a Bob whose session ends after round one reads
// rows, lags and checksums alone. A whole group's fold in a later round is
// kept too, once a session has folded it (see laterRows).
//
// A Snapshot is also persistent: Apply returns the successor after a batch
// of writes in time proportional to the batch. The successor inherits every
// cached shape as it stands, marked with the entry of the write log it is
// current at, and a shape catches up from the log the first time a session
// asks for it. A written element joins its group's short lag list, which
// the endpoints read alongside the group slice (see elemSet) and fold on
// top of its table row, and its group's checksum takes one ± per write; a
// group slice is rewritten, and its table row with it, only once its lag
// list has grown to a fixed share of it. A long-lived mutable set
// therefore pays for its writes, not for its size, each time it is
// reconciled.
//
// The elements themselves are a sorted base slice, shared by a snapshot and
// its successors until enough writes accumulate to re-base, plus the log of
// batches applied since, from which Since reads the net writes between a
// marked snapshot and its successor (see Mark). Group slices are filled in
// sorted order, so they are sorted too — the property the binary-search
// membership test of elemSet relies on.
//
// All methods are safe for concurrent use. The element slices handed out
// are shared: callers (including endpoints built from the snapshot) must
// treat them as read-only, which they do — the protocol only ever reads
// group subsets and re-partitions them into freshly allocated child
// slices.
type Snapshot struct {
	sigBits uint
	seed    uint64
	sd      seeds

	base []uint64
	log  *writeLog // batches applied on top of base, down to its root
	n    int       // |S|

	// flat is S as one sorted slice, worked out on first need (a shape to
	// fold, Elements, Contains): base itself, sorted if it came unsorted,
	// at the log's root; otherwise base with the log merged in.
	flatOnce sync.Once
	flat     []uint64

	mu     sync.Mutex
	shapes map[int]shape // group count -> cached shape
}

// shape is what the snapshot keeps per plan shape: the partition for a
// group count and, when partitionFor keeps one, the round-one table for one
// bitmap degree on top of it. A shape inherited through Apply may be
// behind: the batches logged after at have yet to reach its groups (and,
// where they rewrite a base, its table), and so have the writes in behind,
// which a re-base composed for it because the new log does not reach them
// (see Apply).
type shape struct {
	partition
	at     *writeLog // the log entry the shape is current at; nil for the root
	behind delta     // net writes from before the log's root still to absorb
}

// current reports whether sh is up to date at the snapshot whose log is
// log.
func (sh shape) current(log *writeLog) bool {
	return sh.at == log && sh.behind.len() == 0
}

// eachBatch calls f on each batch sh is behind log by, in no particular
// order: every write flips its element, so absorb may take them in any.
func (sh shape) eachBatch(log *writeLog, f func(delta)) {
	f(sh.behind)
	for l := log; l != sh.at; l = l.prev {
		f(l.batch)
	}
}

// lagging returns how many writes sh is behind log by: the batches logged
// since at, counted off the log's running size (an element written and
// written back counts twice), and the net writes in behind.
func (sh shape) lagging(log *writeLog) int {
	n := sh.behind.len() + log.size
	if sh.at != nil {
		n -= sh.at.size
	}
	return n
}

// partition is a shape as the endpoints see it: one slot per group, the
// group slices behind a lazy cut, and, when kept, the round-one table,
// whose rows fold the groups' base slices. All three are current, shared
// and read-only. Read a group through group, which cuts the slices on
// first need.
type partition struct {
	groups []groupSlot
	table  *foldTable
	cut    *lazyCut
}

// groupSlot is one group of a shape. The group is base △ lag: the sorted
// slice the shape's lazy cut holds, and the sorted list of elements written
// since (nil while there are none). check is its plain-sum checksum
// (§2.2.3), the one place a whole group's checksum is kept: fold sums it,
// absorb moves it by one ± per write, and both endpoints read it at the
// start of a session instead of passing over the group.
type groupSlot struct {
	lag   []uint64
	check uint64
}

// group returns group g as an element set, cutting the groups first if no
// reader has yet (see lazyCut).
func (p partition) group(g int) elemSet {
	return elemSet{base: p.cut.bases()[g], lag: p.groups[g].lag}
}

// lazyCut is the group slices of a shape, cut on first need, once, and
// the later-round rows that fold them. fold builds a shape's checksums,
// sizes and round-one rows without the slices: a round one reads only
// rows, lags and checksums (§5.3), so a session that ends after it never
// pays for the cut. A round two or a split scope, an Alice, absorb and a
// second-read buildFoldTable cut them. Once cut, the slice array is never
// written: absorb gives a shape whose groups it rewrites a fresh one (see
// cutOf), and with it a copy of the rows.
type lazyCut struct {
	once  sync.Once
	sd    seeds
	elems []uint64 // the sorted elements the shape was folded from; nil once cut
	sizes []int    // each group's size; nil once cut
	cuts  [][]uint64
	rows  laterRows
}

// cutOf returns a lazy cut whose groups are already cut into bases.
func cutOf(bases [][]uint64) *lazyCut {
	c := &lazyCut{cuts: bases}
	c.once.Do(func() {})
	return c
}

// bases returns the group slices, cutting them on the first call: each
// group's exact-size stretch of one backing array is known from sizes, so
// one pass fills them in element order, sorted.
func (c *lazyCut) bases() [][]uint64 {
	c.once.Do(func() {
		backing := make([]uint64, len(c.elems))
		bases := make([][]uint64, len(c.sizes))
		off := 0
		for g, size := range c.sizes {
			bases[g] = backing[off : off : off+size]
			off += size
		}
		for _, x := range c.elems {
			g := c.sd.groupOf(x, len(bases))
			bases[g] = append(bases[g], x)
		}
		c.cuts, c.elems, c.sizes = bases, nil, nil
	})
	return c.cuts
}

// delta is a net batch of writes: elements to insert and elements to
// delete, each sorted and duplicate-free, the two disjoint.
type delta struct{ adds, removes []uint64 }

func (d delta) len() int { return len(d.adds) + len(d.removes) }

// writeLog is the persistent list of batches applied on top of a base
// slice, newest first, ending at an empty root entry made with the base. A
// successor conses its batch onto its predecessor's log, so Apply never
// copies what came before, and a Mark is one entry.
type writeLog struct {
	batch delta
	prev  *writeLog // nil at the root
	size  int       // writes in this batch and all older ones
}

// since composes the batches newer than stop, oldest first, into one delta,
// pairing neighbours so that every write is merged O(log batches) times.
// It reports false if stop is not on the log; a nil stop composes all of
// it.
func (l *writeLog) since(stop *writeLog) (delta, bool) {
	var ds []delta
	for ; l != stop; l = l.prev {
		if l == nil {
			return delta{}, false
		}
		if l.batch.len() > 0 {
			ds = append(ds, l.batch)
		}
	}
	slices.Reverse(ds)
	for len(ds) > 1 {
		half := ds[:0]
		for i := 0; i+1 < len(ds); i += 2 {
			half = append(half, ds[i].then(ds[i+1]))
		}
		if len(ds)%2 == 1 {
			half = append(half, ds[len(ds)-1])
		}
		ds = half
	}
	if len(ds) == 0 {
		return delta{}, true
	}
	return ds[0], true
}

// then returns the net effect of d followed by e: an element d inserts and
// e deletes (or the reverse) drops out.
func (d delta) then(e delta) delta {
	return delta{
		adds:    applySorted(d.adds, applySorted(e.adds, nil, d.removes), e.removes),
		removes: applySorted(d.removes, applySorted(e.removes, nil, d.adds), e.adds),
	}
}

// applySorted returns (base ∖ removes) ∪ adds for sorted inputs, sorted.
// adds must be disjoint from the result's other elements; removes that
// base does not hold are ignored. With nothing to apply it returns base
// itself.
func applySorted(base, adds, removes []uint64) []uint64 {
	if len(adds) == 0 && len(removes) == 0 {
		return base
	}
	out := make([]uint64, 0, len(base)+len(adds))
	for _, x := range base {
		for len(removes) > 0 && removes[0] < x {
			removes = removes[1:]
		}
		if len(removes) > 0 && removes[0] == x {
			continue
		}
		for len(adds) > 0 && adds[0] < x {
			out = append(out, adds[0])
			adds = adds[1:]
		}
		out = append(out, x)
	}
	return append(out, adds...)
}

// NewSnapshot validates set once under cfg (only SigBits and Seed are
// consulted; zero values select the defaults, as in NewPlan) and returns a
// shareable snapshot. Elements must be nonzero, distinct, and fit in
// SigBits bits — the same contract NewAlice and NewBob enforce. The slice
// is copied.
func NewSnapshot(set []uint64, cfg Config) (*Snapshot, error) {
	s, err := newSnapshot(cfg)
	if err != nil {
		return nil, err
	}
	mask := sigMask(s.sigBits)
	elems := make([]uint64, len(set))
	for i, x := range set {
		if x == 0 || x&^mask != 0 {
			return nil, fmt.Errorf("core: element %#x outside %d-bit universe (0 excluded)", x, s.sigBits)
		}
		elems[i] = x
	}
	s.base, s.n = elems, len(elems)
	s.flatten() // sorts: duplicates are neighbours now
	for i := 1; i < len(elems); i++ {
		if elems[i] == elems[i-1] {
			return nil, fmt.Errorf("core: duplicate element %#x", elems[i])
		}
	}
	return s, nil
}

// NewValidatedSnapshot wraps an element slice the caller has already
// validated (nonzero, distinct, within SigBits bits — e.g. elements drawn
// from a set handle that enforced the contract at insertion time) without
// re-running the validation. The slice is retained, not copied, and —
// unless it already is sorted — sorted in place the first time a session
// needs the elements: the caller must not use it afterwards.
func NewValidatedSnapshot(elems []uint64, cfg Config) (*Snapshot, error) {
	s, err := newSnapshot(cfg)
	if err != nil {
		return nil, err
	}
	s.base, s.n = elems, len(elems)
	return s, nil
}

func newSnapshot(cfg Config) (*Snapshot, error) {
	cfg = cfg.withDefaults()
	if cfg.SigBits < 8 || cfg.SigBits > 64 {
		return nil, fmt.Errorf("core: sigBits=%d out of range [8,64]", cfg.SigBits)
	}
	return &Snapshot{
		sigBits: cfg.SigBits,
		seed:    cfg.Seed,
		sd:      deriveSeeds(cfg.Seed),
		log:     &writeLog{},
		shapes:  make(map[int]shape),
	}, nil
}

// Len returns the number of elements in the snapshot.
func (s *Snapshot) Len() int { return s.n }

// Contains reports whether x is in the snapshot.
func (s *Snapshot) Contains(x uint64) bool {
	s.flatten()
	return inSorted(s.flat, x)
}

// SigBits returns the signature width the snapshot was validated against.
func (s *Snapshot) SigBits() uint { return s.sigBits }

// Seed returns the master hash seed the snapshot partitions under.
func (s *Snapshot) Seed() uint64 { return s.seed }

// Elements returns the elements in ascending order. The slice is shared,
// not copied: the caller must not modify it. On a snapshot produced by
// Apply the first call merges it in O(|S|).
func (s *Snapshot) Elements() []uint64 {
	s.flatten()
	return s.flat
}

// flatten materializes flat. A successor merges its log into base, which
// is sorted by then: a snapshot built from a slice sorts it here, before
// anything can read it or Apply can share it.
func (s *Snapshot) flatten() {
	s.flatOnce.Do(func() {
		if s.log.prev == nil {
			if !slices.IsSorted(s.base) {
				sortElems(s.base)
			}
			s.flat = s.base
			return
		}
		since, _ := s.log.since(nil)
		s.flat = applySorted(s.base, since.adds, since.removes)
	})
}

// Mark is a snapshot's place in its write log, for Since to read the
// writes after. The zero Mark marks no snapshot.
type Mark struct{ at *writeLog }

// Mark returns s's place in its write log.
func (s *Snapshot) Mark() Mark { return Mark{s.log} }

// Since returns the net writes that lead from the snapshot m marks to s:
// adds holds the elements s has and that snapshot lacks, removes the
// reverse, each sorted, shared and read-only. It costs the writes, not
// |S|. ok is false when s is not reached from the marked snapshot by Apply
// without a re-base in between, as for a mark of an unrelated snapshot and
// for the zero Mark: the difference is then only to be had from the
// elements.
func (s *Snapshot) Since(m Mark) (adds, removes []uint64, ok bool) {
	if m.at == nil {
		return nil, nil, false
	}
	d, ok := s.log.since(m.at)
	return d.adds, d.removes, ok
}

// maxCachedShapes bounds Snapshot.shapes. The group count is derived from
// the peer-influenced d̂, so an unbounded cache would let a hostile client
// grow server memory by forging a different estimate per session; honest
// traffic clusters around a handful of group counts, which all fit. At the
// cap an arbitrary entry is evicted, so forged estimates can at worst
// force recomputation — per-session O(|S|), exactly like NewBob — never
// unbounded growth or a poisoned cache. It also sets the ceiling on the
// round-one tables and later-round rows one snapshot retains:
// maxCachedShapes·|S| words in all (see tableRoom), the most that
// maxCachedShapes tables within tableFits could already add up to.
const maxCachedShapes = 8

// rebaseFraction re-bases a successor once its log holds more than
// |S|/rebaseFraction writes: one O(|S|) merge per that many writes bounds
// the log, and Apply stays O(batch) in between.
const rebaseFraction = 2

// lagFraction bounds how far writes may run ahead of what they were cut
// from, as a share 1/lagFraction of it. A group slice is rewritten once its
// lag list is that long, so lag lists stay short next to their groups and
// the rewriting is spread over the groups instead of falling on one sync;
// and a cached shape no session has asked for while that many writes piled
// up behind it is dropped, to be folded afresh if one ever does.
const lagFraction = 8

// cacheableGroups bounds the size of an individual cached partition: a
// partition costs O(groups) slice headers regardless of |S|, so caching a
// forged-estimate partition with groups ≫ |S| would pin megabytes of
// mostly-empty headers per cache slot. Such partitions are still computed
// and returned — the allocation is transient and GC-reclaimed with the
// session — just never retained.
func (s *Snapshot) cacheableGroups(groups int) bool {
	return groups <= 4*s.n+64
}

// tableWords is the size of the round-one table of shape (groups, m),
// counted in words of bin sums, groups·2^m; the parities add a 64th of that
// plus a word a group.
func tableWords(groups int, m uint) uint64 { return uint64(groups) << m }

// tableFits reports whether a shape's table is worth building on its first
// read: its bin sums do not exceed the set itself, so a table built for a
// shape no session asks for again costs no more than its group slices
// would. Small sets and large-d plans (many groups, each a bitmap wide)
// fail it and wait for a second read (see partitionFor).
func (s *Snapshot) tableFits(groups int, m uint) bool {
	return tableWords(groups, m) <= uint64(s.n)
}

// tableRoom returns the table words the ceiling leaves to the shape for
// groups: maxCachedShapes·|S| less the tables of every other cached shape
// and the later-round rows charged to s (see laterRows). No shape has zero
// groups, so tableRoom(0) is the room every table and row leave. The caller
// holds s.mu.
func (s *Snapshot) tableRoom(groups int) uint64 {
	room := uint64(maxCachedShapes) * uint64(s.n)
	for g, sh := range s.shapes {
		if g != groups && sh.table != nil {
			room -= min(room, tableWords(len(sh.table.rows), sh.table.m))
		}
		room -= min(room, sh.cut.rows.charged(s.log))
	}
	return room
}

// adopt charges c, the rows of a shape s has just cached, to s. Rows
// charged to a predecessor are taken over if the ceiling has room for them,
// and the predecessor adds to them no more; else they stay its own, for s
// to read but not add to. A copy absorb made for s, charged to none, that
// the ceiling has no room for is emptied. The caller holds s.mu.
func (s *Snapshot) adopt(c *laterRows) {
	room := s.tableRoom(0)
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.owner == s.log:
	case c.words <= room:
		c.owner = s.log
	case c.owner == nil:
		c.owner, c.rows, c.words = s.log, nil, 0
	}
}

// laterRow returns the row p's shape keeps for k, a whole group in a later
// round, or nil and whether a fold of the group's base is worth offering
// for one (see rowPays, foldKept). It cuts the groups if no reader has yet.
func (p partition) laterRow(k rowKey) (row *foldRow, offer bool) {
	if !rowPays(p.cut.bases()[k.g], k.m) {
		return nil, false
	}
	if row = p.cut.rows.find(k); row != nil {
		return row, false
	}
	return nil, true
}

// foldKept folds set, the whole group k names, under seed into sums and
// parity, which must be zero, offering the fold of its base alone as p's
// row for k on the way. p's rows keep a copy if p is the shape s caches for
// its group count, the rows are charged to s, they hold no row for k yet,
// and the ceiling has room for it once every table and every row charged
// to s are counted. It is safe for concurrent sessions and their workers.
func (s *Snapshot) foldKept(p partition, k rowKey, set elemSet, seed uint64, sums, parity []uint64) {
	n := (uint64(1) << k.m) - 1
	binFold(set.base, seed, n, sums, parity)
	s.mu.Lock()
	if sh, ok := s.shapes[len(p.groups)]; ok && sh.cut == p.cut {
		p.cut.rows.keep(s.log, s.tableRoom(0), k, sums, parity)
	}
	s.mu.Unlock()
	binFold(set.lag, seed, n, sums, parity)
	binFold(set.over, seed, n, sums, parity)
}

// partitionFor returns the partition for plan.Groups, with the round-one
// table for (plan.Groups, plan.M) when the one rule keeps it; a nil table
// sends the endpoint down the fold path. A shape gets its table on its
// first read if it is within tableFits, and on its second otherwise — a
// shape inherited through Apply has been read — and keeps it across
// writes: a table row folds its group's base alone, so a write costs the
// table nothing until absorb rewrites that base.
//
// A shape not cached is built by one pass over the sorted elements, which
// folds the table too when the rule wants one on the first read (see fold).
// Its group slices are cut later, on first need (see lazyCut): a Bob whose
// session ends after round one never cuts them. A table built on a second
// read folds the cut groups (see buildFoldTable).
//
// The tables of the cached shapes total at most maxCachedShapes·|S| words:
// a table is built only if tableRoom has room for it, retained only if the
// room is still there when the shape is stored, and inherited only within
// the successor's ceiling (see Apply). A shape whose table lost its room to
// a concurrent session is retained without it. The later-round rows a
// shape's sessions keep count against the same ceiling (see laterRows):
// the shape stored here takes its rows over if they fit (see adopt).
//
// Up to maxCachedShapes shapes are cached, each with the table of one
// bitmap degree (a request for another degree replaces it). An inherited
// shape that is behind absorbs the batches logged since it was current
// here, once, and is cached as current at s. All of that work runs
// outside the lock so concurrent sessions are never serialized behind it;
// two sessions may race to compute the same shape, which is a function of
// the snapshot alone, so either result is valid and the later one keeps the
// cache slot.
func (s *Snapshot) partitionFor(plan Plan) partition {
	groups, m := plan.Groups, plan.M
	s.mu.Lock()
	sh, cached := s.shapes[groups]
	room := s.tableRoom(groups)
	s.mu.Unlock()
	wantTable := (cached || s.tableFits(groups, m)) && tableWords(groups, m) <= room
	if sh.table != nil && (sh.table.m != m || !wantTable) {
		sh.table = nil
	}
	buildTable := wantTable && sh.table == nil
	stale := cached && !sh.current(s.log)
	if cached && !stale && !buildTable {
		return sh.partition
	}

	switch {
	case !cached:
		sh.partition, buildTable = s.fold(groups, m, buildTable), false
	case stale:
		sh.partition = s.absorb(sh, s.log)
	}
	sh.at, sh.behind = s.log, delta{}
	if buildTable {
		sh.table = buildFoldTable(sh.partition, m, s.sd, plan.workersFor(s.n+groups<<m))
	}
	if s.cacheableGroups(groups) {
		s.mu.Lock()
		kept := sh
		if kept.table != nil && tableWords(groups, m) > s.tableRoom(groups) {
			kept.table = nil
		}
		if _, ok := s.shapes[groups]; !ok && len(s.shapes) >= maxCachedShapes {
			for k := range s.shapes {
				delete(s.shapes, k)
				break
			}
		}
		s.shapes[groups] = kept
		s.adopt(&kept.cut.rows)
		s.mu.Unlock()
	}
	return sh.partition
}

// foldBlock is how many elements fold hashes before it scatters them.
const foldBlock = 256

// fold builds the partition for groups in one pass over the sorted
// elements, and with table its round-one table at degree m, without
// cutting the groups: a group's size, checksum and round-one row all
// accumulate element by element in any order, and nothing in round one
// crosses a group (§5.3). The pass hashes a block of elements to their
// groups, summing sizes and checksums, then to their bins under each
// group's round-1 seed, and only then scatters the block into the table,
// so the hash chains of neighbouring elements overlap instead of waiting
// on one another or on the scatter. The group slices are left to a
// lazyCut.
func (s *Snapshot) fold(groups int, m uint, table bool) partition {
	elems := s.Elements()
	slots := make([]groupSlot, groups)
	sizes := make([]int, groups)
	n := (uint64(1) << m) - 1
	var t *foldTable
	var seeds []uint64
	if table {
		t = newFoldTable(groups, m)
		seeds = make([]uint64, groups)
		for g := range seeds {
			seeds[g] = s.sd.binSeed(newScopeID(g), 1)
		}
	}
	var gs [foldBlock]uint32
	var bins [foldBlock]uint64
	for lo := 0; lo < len(elems); lo += foldBlock {
		block := elems[lo:min(lo+foldBlock, len(elems))]
		for i, x := range block {
			g := s.sd.groupOf(x, groups)
			gs[i] = uint32(g)
			sizes[g]++
			slots[g].check += x
		}
		if t == nil {
			continue
		}
		for i, x := range block {
			bins[i] = hashutil.Bin(x, seeds[gs[i]], n)
		}
		for i, x := range block {
			b := bins[i]
			row := &t.rows[gs[i]]
			row.sums[b] ^= x
			row.parity[b>>6] ^= 1 << (b & 63)
		}
	}
	mask := sigMask(s.sigBits)
	for g := range slots {
		slots[g].check &= mask
	}
	return partition{groups: slots, table: t, cut: &lazyCut{sd: s.sd, elems: elems, sizes: sizes}}
}

// absorb returns sh's partition brought up to date by the batches it is
// behind log by, copy-on-write: each write flips its element in its group's
// lag list and adds it to or takes it from its group's checksum — fresh
// copies of the slot array and of just those lists — and a group whose lag
// list has outgrown its share is rewritten with the list folded in, its
// table row with it. A flip and a ± commute, so the batches need not be
// composed, nor taken in order: an element written and written back flips
// twice and drops out. The writes are sorted by group into one slice, and
// each group's run merges into its lag list in one symDiffSorted. The
// groups are cut first, if no reader has yet; the slice array and the row
// array are each copied once, on the first rewrite. Every slice, list and
// row the writes do not rewrite stays shared with sh.
func (s *Snapshot) absorb(sh shape, log *writeLog) partition {
	p := sh.partition
	groups := len(p.groups)
	out := partition{groups: slices.Clone(p.groups), table: p.table, cut: p.cut}
	// A counting sort, the checksums moved on the way: ends[g+1] counts
	// group g's writes, the prefix sums make ends[g] where g's run starts,
	// and the scatter moves it on to where the run ends. Group numbers fit
	// 32 bits, as in fold.
	ends := make([]uint32, groups+1)
	sh.eachBatch(log, func(d delta) {
		for _, x := range d.adds {
			g := s.sd.groupOf(x, groups)
			ends[g+1]++
			out.groups[g].check += x
		}
		for _, x := range d.removes {
			g := s.sd.groupOf(x, groups)
			ends[g+1]++
			out.groups[g].check -= x
		}
	})
	for g := range groups {
		ends[g+1] += ends[g]
	}
	byGroup := make([]uint64, ends[groups])
	scatter := func(xs []uint64) {
		for _, x := range xs {
			g := s.sd.groupOf(x, groups)
			byGroup[ends[g]] = x
			ends[g]++
		}
	}
	sh.eachBatch(log, func(d delta) {
		scatter(d.adds)
		scatter(d.removes)
	})
	bases := p.cut.bases()
	mask := sigMask(s.sigBits)
	lo := uint32(0)
	for g := range groups {
		run := byGroup[lo:ends[g]]
		lo = ends[g]
		if len(run) == 0 {
			continue
		}
		slices.Sort(run)
		run = dropPairs(run)
		slot := &out.groups[g]
		slot.check &= mask
		lag := symDiffSorted(slot.lag, run)
		if len(lag) > len(bases[g])/lagFraction+lagFraction {
			if out.cut == p.cut {
				out.cut = cutOf(slices.Clone(bases))
				out.cut.rows.copyRows(&p.cut.rows)
			}
			out.cut.cuts[g] = symDiffSorted(bases[g], lag)
			out.cut.rows.rebase(g, lag, s.sd)
			if out.table != nil {
				if out.table == p.table {
					out.table = &foldTable{m: p.table.m, rows: slices.Clone(p.table.rows)}
				}
				out.table.rows[g] = out.table.rows[g].rebased(lag, s.sd.binSeed(newScopeID(g), 1), out.table.m)
			}
			lag = nil
		}
		slot.lag = lag
	}
	return out
}

// dropPairs removes, in place, each pair of equal neighbours from a sorted
// slice: what is left is the elements it holds an odd number of times.
func dropPairs(xs []uint64) []uint64 {
	out := xs[:0]
	for i := 0; i < len(xs); i++ {
		if i+1 < len(xs) && xs[i] == xs[i+1] {
			i++
			continue
		}
		out = append(out, xs[i])
	}
	return out
}

// symDiffSorted returns a △ b for sorted duplicate-free inputs, sorted.
func symDiffSorted(a, b []uint64) []uint64 {
	out := make([]uint64, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			out, a = append(out, a[0]), a[1:]
		case a[0] > b[0]:
			out, b = append(out, b[0]), b[1:]
		default:
			a, b = a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// Apply returns the successor snapshot after a batch of writes: add holds
// elements not in s, remove elements of s, the two disjoint and each free
// of duplicates — the caller's contract, as for NewValidatedSnapshot. The
// inputs are not retained. s itself is unchanged and stays valid for the
// sessions holding it.
//
// Apply costs O(batch + cached shapes), not O(|S|): the successor shares
// the base slice, conses the batch onto the log, and inherits every cached
// shape, its round-one table included, still current where it was: the
// shape catches up from the log when a session asks for it (see
// partitionFor). A shape is inherited while it is behind by at most
// |S|/lagFraction writes, counted off the log's running size, and its table
// while the tables inherited so far fit the successor's ceiling of
// maxCachedShapes·|S| words; a shape whose table does not fit is inherited
// without it. A re-base starts a new log, which the old one's entries are
// not on, so it composes the writes each shape it keeps is behind by, once.
func (s *Snapshot) Apply(add, remove []uint64) *Snapshot {
	if s.log.prev == nil {
		s.flatten() // a successor shares base: make sure it is sorted
	}
	batch := delta{adds: slices.Clone(add), removes: slices.Clone(remove)}
	slices.Sort(batch.adds)
	slices.Sort(batch.removes)
	log := &writeLog{batch: batch, prev: s.log, size: batch.len() + s.log.size}
	ns := &Snapshot{
		sigBits: s.sigBits,
		seed:    s.seed,
		sd:      s.sd,
		base:    s.base,
		log:     log,
		n:       s.n + len(add) - len(remove),
	}
	rebase := log.size > ns.n/rebaseFraction
	if rebase {
		ns.base, ns.log = ns.Elements(), &writeLog{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ns.shapes = make(map[int]shape, len(s.shapes))
	for groups, sh := range s.shapes {
		if sh.lagging(log) > ns.n/lagFraction || !ns.cacheableGroups(groups) {
			continue
		}
		if rebase {
			d, _ := log.since(sh.at)
			sh.at, sh.behind = ns.log, sh.behind.then(d)
		}
		// ns is not shared yet, so tableRoom needs no lock.
		if sh.table != nil && tableWords(len(sh.table.rows), sh.table.m) > ns.tableRoom(groups) {
			sh.table = nil
		}
		ns.shapes[groups] = sh
	}
	return ns
}

// checkPlan reports whether plan can run against this snapshot: the
// partition is derived from Seed and SigBits, so those must match, while
// the rest of the plan (bitmap size, capacity, groups) may vary per
// session, as it does when each session's plan is derived from its own d̂.
func (s *Snapshot) checkPlan(plan Plan) error {
	if err := plan.validate(); err != nil {
		return err
	}
	if plan.Seed != s.seed {
		return fmt.Errorf("core: plan seed %#x does not match snapshot seed %#x", plan.Seed, s.seed)
	}
	if plan.SigBits != s.sigBits {
		return fmt.Errorf("core: plan sigBits %d does not match snapshot sigBits %d", plan.SigBits, s.sigBits)
	}
	return nil
}

// NewBobFromSnapshot creates a Bob endpoint that reconciles against the
// shared snapshot without copying or re-validating it. The plan's Seed and
// SigBits must match the snapshot's.
func NewBobFromSnapshot(snap *Snapshot, plan Plan) (*Bob, error) {
	if err := snap.checkPlan(plan); err != nil {
		return nil, err
	}
	return &Bob{
		plan:      plan,
		snap:      snap,
		sd:        snap.sd,
		sigMask:   sigMask(plan.SigBits),
		part:      snap.partitionFor(plan),
		scopeSets: make(map[scopeID]elemSet),
	}, nil
}
