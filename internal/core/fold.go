package core

import (
	"slices"

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

// foldRow is the round-one fold of one group's base slice: its bin sums and
// parities under the group's round-1 bin seed. The group's lag list is not
// in it: a session reading the row folds the lag on top (see withLag), which
// the fold's linearity makes byte-identical to folding the whole group. The
// group's checksum is not here either but in its partition slot, which every
// shape has, table or not. A published row is immutable; Snapshot.absorb
// replaces the row of a group whose base it rewrites (see rebased).
type foldRow struct {
	sums   []uint64
	parity []uint64
}

// withLag returns the round-one sums and parities of the group whose base r
// folds and whose lag list is lag: r's own slices while the lag is empty,
// else r copied into sums and parity (n+1 and parityWords(n) words, the
// caller's scratch) with the lag folded on top.
func (r *foldRow) withLag(lag []uint64, seed, n uint64, sums, parity []uint64) ([]uint64, []uint64) {
	if len(lag) == 0 {
		return r.sums, r.parity
	}
	copy(sums, r.sums)
	copy(parity, r.parity)
	binFold(lag, seed, n, sums, parity)
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
// foldRow per group. Round 1 is the only round whose bin hash is known in
// advance — its seed depends on the group and the round number alone — and
// the fold is linear in the set, so a snapshot can keep it across sessions
// and writes: a write joins its group's lag list and leaves the row alone
// (Snapshot.partitionFor says which tables are kept). Alice's first
// BuildRound and Bob's first HandleRound read their sums and parities from
// it, with each group's lag folded on top; later rounds and split scopes
// fold afresh. A table built on a shape's first read is folded with the
// shape (see Snapshot.fold), one built later from its cut groups (see
// buildFoldTable).
type foldTable struct {
	m    uint
	rows []foldRow
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
