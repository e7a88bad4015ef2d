package core

import (
	"pbs/internal/hashutil"
)

// A scope identifies one independently reconciled set pair: initially one
// of the g group pairs, and after BCH decoding failures one of the 3-way
// sub-group pairs of §3.2. Scopes are identified by the group index plus
// the path of split-child choices, so both endpoints derive identical
// element membership from hashes alone.
type scopeID struct {
	group int
	path  string // one byte per split level, values 0..splitWays-1
	h     uint64 // cached identity hash; maintained by the constructors
}

// splitWays is the fan-out used when a group pair's BCH decoding fails.
// The paper argues for 3 (a 2-way split leaves too high a residual
// probability of another failure, §3.2).
const splitWays = 3

// newScopeID returns the root scope of a group with its identity hash
// precomputed. All scopeID values must come from newScopeID, child, or
// makeScopeID so the cached hash stays consistent (it participates in
// scopeID equality and map keys).
func newScopeID(group int) scopeID {
	return scopeID{group: group, h: hashutil.XXH64Uint64(uint64(group), 0x5C09E)}
}

func (s scopeID) child(i int) scopeID {
	return scopeID{
		group: s.group,
		path:  s.path + string(rune('0'+i)),
		h:     hashutil.XXH64Uint64(s.h, uint64('0'+i)+0x711D),
	}
}

// makeScopeID rebuilds a scopeID (and its cached hash) from raw parts,
// e.g. when parsed off the wire. The hash folds directly over the path
// bytes — the same chain child() maintains incrementally — so no
// intermediate scopeIDs or strings are built.
func makeScopeID(group int, path string) scopeID {
	h := hashutil.XXH64Uint64(uint64(group), 0x5C09E)
	for i := 0; i < len(path); i++ {
		h = hashutil.XXH64Uint64(h, uint64(path[i])+0x711D)
	}
	return scopeID{group: group, path: path, h: h}
}

// hash returns the scope's identity hash, used to derive scope-specific
// hash seeds. It is precomputed at construction so per-round seed
// derivation does not re-hash the split path.
func (s scopeID) hash() uint64 { return s.h }

// seeds bundles the derived hash seeds shared by both endpoints.
type seeds struct {
	group uint64 // assigns elements to groups (h′ of §1.3.2)
	round uint64 // master for per-round bin hashes (fresh h every round, §2.4)
	split uint64 // master for split-child assignment
}

func deriveSeeds(master uint64) seeds {
	s := master
	return seeds{
		group: hashutil.SplitMix64(&s),
		round: hashutil.SplitMix64(&s),
		split: hashutil.SplitMix64(&s),
	}
}

// binSeed returns the seed of the bin-partitioning hash for a scope in a
// given round. Different rounds use independent hash functions (§2.4);
// different scopes also get independent hashes so sibling sub-groups do
// not correlate.
func (sd seeds) binSeed(sc scopeID, round int) uint64 {
	return hashutil.XXH64Uint64(sc.hash()^uint64(round)*0x9E3779B97F4A7C15, sd.round)
}

// splitSeed returns the seed assigning a scope's elements to its children.
// It depends only on the scope identity, so a scope splits the same way on
// both sides regardless of the round in which the failure occurred.
func (sd seeds) splitSeed(sc scopeID) uint64 {
	return hashutil.XXH64Uint64(sc.hash(), sd.split)
}

// groupOf assigns element x to a group.
func (sd seeds) groupOf(x uint64, groups int) int {
	return int(hashutil.Bucket(x, sd.group, uint64(groups)))
}

// childOf assigns element x to a split child of scope sc.
func (sd seeds) childOf(x uint64, sc scopeID) int {
	return int(hashutil.Bucket(x, sd.splitSeed(sc), splitWays))
}

// splitSorted partitions set among the children of scope sc, preserving
// element order within each child (a sorted set splits into sorted
// children).
func (sd seeds) splitSorted(sc scopeID, set []uint64) [splitWays][]uint64 {
	var children [splitWays][]uint64
	seed := sd.splitSeed(sc)
	for _, x := range set {
		c := hashutil.Bucket(x, seed, splitWays)
		children[c] = append(children[c], x)
	}
	return children
}
