package core

import (
	"maps"
	"slices"
	"sync"

	"pbs/internal/hashutil"
)

// elemSet is a scope's element set, never materialized: base △ lag △ over.
// base is a sorted slice shared with the snapshot (a group) or owned by the
// session (a split child); lag, also sorted and shared, lists the elements
// written to the set since base was cut; over, sorted and owned by the
// session, lists the elements the session itself has toggled — for Alice
// the scope's share of the learned difference, while Bob leaves it empty.
// Folding, splitting and the checksum are linear over the three layers, so
// a write costs the set a lag entry instead of a copy, and a session costs
// its difference instead of its set.
type elemSet struct{ base, lag, over []uint64 }

func inSorted(set []uint64, x uint64) bool {
	_, ok := slices.BinarySearch(set, x)
	return ok
}

// len returns the number of stored elements across the layers — what a
// pass over the set costs, not its cardinality.
func (e elemSet) len() int { return len(e.base) + len(e.lag) + len(e.over) }

// contains reports whether x is in the set.
func (e elemSet) contains(x uint64) bool {
	return inSorted(e.base, x) != inSorted(e.lag, x) != inSorted(e.over, x)
}

// fold accumulates the set into the bin sums and parities (see binFold).
func (e elemSet) fold(seed, n uint64, sums, parity []uint64) {
	binFold(e.base, seed, n, sums, parity)
	binFold(e.lag, seed, n, sums, parity)
	binFold(e.over, seed, n, sums, parity)
}

// checksum returns the plain-sum checksum c(set) under mask (§2.2.3). The
// sessions need it only for split children: a whole group's is kept in its
// partition slot, and a scope's after a round is its worker's running sum.
func (e elemSet) checksum(mask uint64) uint64 {
	c := checksumOf(e.base, mask)
	for _, x := range e.lag {
		c = checksumToggle(c, x, inSorted(e.base, x), mask)
	}
	for _, x := range e.over {
		c = checksumToggle(c, x, inSorted(e.base, x) != inSorted(e.lag, x), mask)
	}
	return c
}

// checksumToggle returns the checksum after toggling element x, where
// present reports whether x is currently in the set.
func checksumToggle(c, x uint64, present bool, mask uint64) uint64 {
	if present {
		return (c - x) & mask
	}
	return (c + x) & mask
}

// split partitions the set among the children of scope sc, layer by layer:
// the three layers split by the same hash, so each child's layers combine
// to its share of the set.
func (e elemSet) split(sd seeds, sc scopeID) [splitWays]elemSet {
	base, lag, over := sd.splitSorted(sc, e.base), sd.splitSorted(sc, e.lag), sd.splitSorted(sc, e.over)
	var children [splitWays]elemSet
	for i := range children {
		children[i] = elemSet{base: base[i], lag: lag[i], over: over[i]}
	}
	return children
}

// binFold hashes every element of set into a bin in [1, n], accumulating
// per-bin XOR sums (1-based, n+1 slots) and cardinality parities (bin b is
// bit b&63 of word b>>6, parityWords(n) words) into the caller's buffers.
// Both accumulators are involutions, so folding an element in and folding
// it out are the same call — the one fold loop behind a fresh round, a
// table row, a group's lag on top of its row, and a row's rebase.
func binFold(set []uint64, seed uint64, n uint64, sums, parity []uint64) {
	for _, x := range set {
		b := hashutil.Bin(x, seed, n)
		sums[b] ^= x
		parity[b>>6] ^= 1 << (b & 63)
	}
}

// parityWords returns the length of a packed parity bitmap over bins [0, n].
func parityWords(n uint64) uint64 { return n>>6 + 1 }

// checksumOf returns the plain sum of set under mask.
func checksumOf(set []uint64, mask uint64) uint64 {
	var c uint64
	for _, x := range set {
		c += x
	}
	return c & mask
}

// foldRow is the fold of one group's base slice under one bin seed: its bin
// sums and parities. The group's lag list is not in it, nor, for Alice, the
// scope's toggles: a session reading the row folds them on top (see
// withLag), which the fold's linearity makes byte-identical to folding the
// whole scope. The group's checksum is not here either but in its partition
// slot, which every shape has, table or not. A published row is immutable;
// Snapshot.absorb replaces the row of a group whose base it rewrites (see
// rebased).
type foldRow struct {
	sums   []uint64
	parity []uint64
}

// withLag returns the sums and parities of the scope whose base r folds and
// whose other layers are lag and over: r's own slices while both are empty,
// else r copied into sums and parity (n+1 and parityWords(n) words, the
// caller's scratch) with the two folded on top.
func (r *foldRow) withLag(lag, over []uint64, seed, n uint64, sums, parity []uint64) ([]uint64, []uint64) {
	if len(lag) == 0 && len(over) == 0 {
		return r.sums, r.parity
	}
	copy(sums, r.sums)
	copy(parity, r.parity)
	binFold(lag, seed, n, sums, parity)
	binFold(over, seed, n, sums, parity)
	return sums, parity
}

// rebased returns a fresh copy of r with lag folded in: the row of the new
// base when absorb rewrites the group's base as base △ lag.
func (r *foldRow) rebased(lag []uint64, seed uint64, m uint) foldRow {
	out := foldRow{sums: slices.Clone(r.sums), parity: slices.Clone(r.parity)}
	binFold(lag, seed, (uint64(1)<<m)-1, out.sums, out.parity)
	return out
}

// foldTable is the round-one table of one plan shape (groups, m): a
// foldRow per group, the round = 1 case of what a snapshot keeps of a
// group's folds. A whole group's bin seed depends on the group and the
// round number alone, so its fold in any round is a property of the
// snapshot, and the fold is linear in the set, so a snapshot can keep it
// across sessions and writes: a write joins its group's lag list and leaves
// the row alone (Snapshot.partitionFor says which tables are kept). Alice's
// first BuildRound and Bob's first HandleRound read their sums and parities
// from it, with each group's lag folded on top; later rounds read a whole
// group's row at their (round, m) from the shape's laterRows, and only
// split scopes fold afresh. A table built on a shape's first read is folded
// with the shape (see Snapshot.fold), one built later from its cut groups
// (see buildFoldTable).
type foldTable struct {
	m    uint
	rows []foldRow
}

// laterRows holds the rows of a shape's groups at the later rounds (≥ 2)
// whole-group scopes have asked for. A row is folded by the first session
// that asks for it and, where it pays — its group's base holds more
// elements than the row has words, the rule of tableFits for one row — kept
// for every later session on the snapshot (see Snapshot.foldKept). It lives
// on the lazy cut, beside the bases it folds: a shape whose bases a write
// leaves alone shares them and their rows with its predecessor, and absorb
// gives a shape whose bases it rewrites a fresh cut with a copy of the
// rows, those of the rewritten groups rebased.
//
// The rows count against the snapshot ceiling that bounds the tables (see
// tableRoom). They are charged to one snapshot, owner, the only one that may
// add to them: the one whose shape first kept them, until a successor that
// reads the shape takes them over (see Snapshot.adopt). mu guards all
// three fields; a published row is never written.
type laterRows struct {
	mu    sync.Mutex
	owner *writeLog // the log of the snapshot the rows are charged to; nil for none
	words uint64    // 2^m a row, counted as tableWords counts a table
	rows  map[rowKey]*foldRow
}

// rowKey names a later-round row: its group, round and bitmap degree.
type rowKey struct {
	g, round int
	m        uint
}

// rowPays reports whether a row at degree m is worth keeping for a group
// whose base is base: it holds more elements than the row has words.
func rowPays(base []uint64, m uint) bool { return uint64(len(base)) > uint64(1)<<m }

// find returns the row for k, or nil.
func (c *laterRows) find(k rowKey) *foldRow {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rows[k]
}

// charged returns the words of c charged to the snapshot whose log is log.
func (c *laterRows) charged(log *writeLog) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.owner != log {
		return 0
	}
	return c.words
}

// keep adds a copy of sums and parity as the row for k, if c is charged to
// log, has no row for k yet and the row fits in room words.
func (c *laterRows) keep(log *writeLog, room uint64, k rowKey, sums, parity []uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	words := uint64(1) << k.m
	if c.owner != log || words > room || c.rows[k] != nil {
		return
	}
	if c.rows == nil {
		c.rows = make(map[rowKey]*foldRow)
	}
	c.rows[k] = &foldRow{sums: slices.Clone(sums), parity: slices.Clone(parity)}
	c.words += words
}

// copyRows fills c, a fresh cut's rows, with those of from, uncharged.
func (c *laterRows) copyRows(from *laterRows) {
	from.mu.Lock()
	defer from.mu.Unlock()
	c.rows, c.words = maps.Clone(from.rows), from.words
}

// rebase replaces group g's rows with copies that have lag folded in, for a
// cut not yet shared whose base of g absorb has rewritten as base △ lag.
func (c *laterRows) rebase(g int, lag []uint64, sd seeds) {
	for k, r := range c.rows {
		if k.g == g {
			row := r.rebased(lag, sd.binSeed(newScopeID(g), k.round), k.m)
			c.rows[k] = &row
		}
	}
}

// buildFoldTable folds the base of every group of p under its round-1
// seed, cutting the groups first if no reader has yet, and fanning the
// groups out over workers. All rows share two backing arrays. It builds the
// table a shape gets on its second read.
func buildFoldTable(p partition, m uint, sd seeds, workers int) *foldTable {
	bases := p.cut.bases()
	t := newFoldTable(len(bases), m)
	n := (uint64(1) << m) - 1
	forEachScope(workers, len(bases), func(_, g int) {
		binFold(bases[g], sd.binSeed(newScopeID(g), 1), n, t.rows[g].sums, t.rows[g].parity)
	})
	return t
}

// newFoldTable returns a table of groups zero rows at degree m, all of them
// stretches of two backing arrays.
func newFoldTable(groups int, m uint) *foldTable {
	n := (uint64(1) << m) - 1
	pw := parityWords(n)
	sums := make([]uint64, uint64(groups)*(n+1))
	parity := make([]uint64, uint64(groups)*pw)
	t := &foldTable{m: m, rows: make([]foldRow, groups)}
	for g := range t.rows {
		lo, hi := uint64(g)*(n+1), uint64(g+1)*(n+1)
		plo, phi := uint64(g)*pw, uint64(g+1)*pw
		t.rows[g] = foldRow{sums: sums[lo:hi:hi], parity: parity[plo:phi:phi]}
	}
	return t
}
