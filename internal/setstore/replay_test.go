package setstore

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// mapReplay is the replay Load used before it merged sorted lists: every
// segment from the newest full one on, adds inserted and then deletes
// removed, through a map, sorted at the end. Kept as the oracle.
func mapReplay(segs []*Segment) []uint64 {
	start := 0
	for i, seg := range segs {
		if seg.Meta.Full {
			start = i
		}
	}
	set := make(map[uint64]struct{})
	for _, seg := range segs[start:] {
		for _, e := range seg.Adds {
			set[e] = struct{}{}
		}
		for _, e := range seg.Dels {
			delete(set, e)
		}
	}
	elems := make([]uint64, 0, len(set))
	for e := range set {
		elems = append(elems, e)
	}
	slices.Sort(elems)
	return elems
}

// randomSorted draws up to n distinct elements from a small universe, so
// that chains re-add, re-delete and overlap.
func randomSorted(rng *rand.Rand, n int) []uint64 {
	out := make([]uint64, rng.Intn(n+1))
	for i := range out {
		out[i] = uint64(rng.Intn(64) + 1)
	}
	return sortedCopy(out)
}

// TestLoadMatchesMapReplay writes random chains straight to disk — deltas
// that add what is already there, delete what is not, add and delete one
// element in the same segment, element-free deltas, a full segment in the
// middle — and checks the merged replay against the map replay.
func TestLoadMatchesMapReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 300; trial++ {
		s, err := Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		var segs []*Segment
		for i, n := 0, 1+rng.Intn(6); i < n; i++ {
			seg := &Segment{Adds: randomSorted(rng, 12)}
			switch {
			case i == 0 || rng.Intn(5) == 0:
				seg.Meta.Full = true
				seg.Meta.Count = uint64(len(seg.Adds))
			case rng.Intn(5) == 0:
				seg.Adds = nil // element-free, as older builds wrote to carry a prior
			default:
				seg.Dels = randomSorted(rng, 12)
				if len(seg.Adds) > 0 && rng.Intn(2) == 0 {
					seg.Dels = sortedCopy(append(seg.Dels, seg.Adds[0]))
				}
			}
			segs = append(segs, seg)
		}
		want := mapReplay(segs)
		segs[len(segs)-1].Meta.Count = uint64(len(want))
		for i, seg := range segs {
			tmp, err := s.writeTemp(seg)
			if err == nil {
				err = s.commitTemp(tmp, "r", uint64(i+1))
			}
			if err != nil {
				t.Fatal(err)
			}
			s.addSeq("r", uint64(i+1))
		}
		got, meta, err := s.Load("r")
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: merged replay %v, map replay %v", trial, got, want)
		}
		if meta.Count != uint64(len(want)) {
			t.Fatalf("trial %d: meta count %d, want %d", trial, meta.Count, len(want))
		}
		if merged, err := s.Merge("r"); err != nil || merged != (len(segs) > 1) {
			t.Fatalf("trial %d: Merge = %v, %v", trial, merged, err)
		}
		if got, _, err = s.Load("r"); err != nil || !slices.Equal(got, want) {
			t.Fatalf("trial %d: after merge %v (%v), want %v", trial, got, err, want)
		}
		s.Close()
	}
}

// TestLoadLegacyChain opens a chain as an older build left it: a full
// segment, then an element-free delta whose footer carries the d̂ prior.
func TestLoadLegacyChain(t *testing.T) {
	dir := t.TempDir()
	elems := seqElems(50, 3)
	meta := testMeta(elems)
	full := AppendSegment(nil, &Segment{Adds: elems, Meta: Meta{Full: true, Count: meta.Count, SketchSeed: meta.SketchSeed, Sketch: meta.Sketch, Digest: meta.Digest}})
	empty := withLegacyPrior(t, AppendSegment(nil, &Segment{Meta: meta}), 16.5, 4, 9)
	for seq, raw := range [][]byte{full, empty} {
		if err := os.WriteFile(filepath.Join(dir, segFileName("old/set", uint64(seq+1))), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := s.Meta("old/set")
	if err != nil {
		t.Fatalf("Meta: %v", err)
	}
	if got.Full || got.Count != meta.Count || !slices.Equal(got.Sketch, meta.Sketch) {
		t.Fatalf("footer of the legacy delta: %+v", got)
	}
	loaded, _, err := s.Load("old/set")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !slices.Equal(loaded, elems) {
		t.Fatal("legacy chain did not replay to its full segment's elements")
	}
}
