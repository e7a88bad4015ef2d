package setstore

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func testMeta(elems []uint64) Meta {
	// A stand-in for the real ToW/msethash metadata: tests only need the
	// footer to round-trip byte-exactly, not to be a real sketch.
	sketch := make([]int64, 8)
	var dig [16]byte
	for _, e := range elems {
		sketch[e%8] += int64(e%3) - 1
		dig[e%16] ^= byte(e)
	}
	return Meta{Count: uint64(len(elems)), SketchSeed: 0xabc, Sketch: sketch, Digest: dig[:]}
}

func seqElems(n int, stride uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i)*stride + 7
	}
	return out
}

func TestSegmentRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 3, 1000} {
		elems := seqElems(n, 1<<33)
		seg := &Segment{Adds: elems, Meta: testMeta(elems)}
		seg.Meta.Full = true
		data := AppendSegment(nil, seg)

		got, err := DecodeSegment(data)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !slices.Equal(got.Adds, elems) || len(got.Dels) != 0 {
			t.Fatalf("n=%d: element mismatch", n)
		}
		if !slices.Equal(got.Meta.Sketch, seg.Meta.Sketch) || !bytes.Equal(got.Meta.Digest, seg.Meta.Digest) {
			t.Fatalf("n=%d: meta mismatch", n)
		}
		if got.Meta.Count != uint64(n) || !got.Meta.Full || got.Meta.SketchSeed != 0xabc {
			t.Fatalf("n=%d: footer fields mismatch: %+v", n, got.Meta)
		}

		meta, err := DecodeMeta(data)
		if err != nil {
			t.Fatalf("DecodeMeta n=%d: %v", n, err)
		}
		if !slices.Equal(meta.Sketch, seg.Meta.Sketch) || !bytes.Equal(meta.Digest, seg.Meta.Digest) {
			t.Fatalf("n=%d: DecodeMeta mismatch", n)
		}
	}
}

func TestSegmentCorruptionRejected(t *testing.T) {
	elems := seqElems(100, 3)
	seg := &Segment{Adds: elems, Meta: testMeta(elems)}
	seg.Meta.Full = true
	data := AppendSegment(nil, seg)

	// Every truncation must fail, never panic or succeed.
	for cut := 0; cut < len(data); cut++ {
		if _, err := DecodeSegment(data[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	// Any single bit flip must fail (CRCs cover body and footer; the tail
	// fields are cross-checked against both).
	for i := 0; i < len(data); i++ {
		corrupt := slices.Clone(data)
		corrupt[i] ^= 0x10
		if _, err := DecodeSegment(corrupt); err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		}
	}
}

func TestStoreFlushLoad(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	elems := seqElems(500, 977)
	meta := testMeta(elems)
	if err := s.AppendFull("acme/users", elems, meta); err != nil {
		t.Fatal(err)
	}

	got, gotMeta, err := s.Load("acme/users")
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(elems)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatal("loaded elements differ")
	}
	if !slices.Equal(gotMeta.Sketch, meta.Sketch) || !bytes.Equal(gotMeta.Digest, meta.Digest) {
		t.Fatal("loaded meta differs")
	}

	// Footer-only read agrees.
	m2, err := s.Meta("acme/users")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(m2.Sketch, meta.Sketch) || m2.Count != meta.Count {
		t.Fatal("Meta() differs from flushed meta")
	}
}

func TestStoreDeltaReplayAndMerge(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	base := seqElems(100, 5)
	if err := s.AppendFull("s", base, testMeta(base)); err != nil {
		t.Fatal(err)
	}
	cur := append([]uint64(nil), base...)
	// Three delta segments: add a few, remove a few.
	for round := 0; round < 3; round++ {
		adds := []uint64{uint64(10000 + round), uint64(20000 + round)}
		dels := []uint64{cur[round*3], cur[round*3+1]}
		next := make([]uint64, 0, len(cur))
		for _, e := range cur {
			if !slices.Contains(dels, e) {
				next = append(next, e)
			}
		}
		cur = append(next, adds...)
		slices.Sort(cur)
		if err := s.AppendDelta("s", adds, dels, testMeta(cur)); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.Segments("s"); n != 4 {
		t.Fatalf("chain length %d, want 4", n)
	}
	got, _, err := s.Load("s")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, cur) {
		t.Fatal("delta replay mismatch")
	}

	merged, err := s.Merge("s")
	if err != nil || !merged {
		t.Fatalf("Merge = %v, %v", merged, err)
	}
	if n := s.Segments("s"); n != 1 {
		t.Fatalf("chain length after merge %d, want 1", n)
	}
	if s.Merges() != 1 {
		t.Fatalf("Merges = %d", s.Merges())
	}
	got, meta, err := s.Load("s")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, cur) || !meta.Full {
		t.Fatal("post-merge replay mismatch")
	}
}

func TestStoreReopenRecovers(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a", "t1/x", "t1/y", "weird @%/name"}
	for i, name := range names {
		elems := seqElems(50+i, 11)
		if err := s.AppendFull(name, elems, testMeta(elems)); err != nil {
			t.Fatal(err)
		}
	}
	extra := []uint64{999999}
	after := append(seqElems(50, 11), extra...)
	slices.Sort(after)
	if err := s.AppendDelta("a", extra, nil, testMeta(after)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate an interrupted flush: a stale temp file must be swept, not
	// mistaken for a segment.
	if err := os.WriteFile(filepath.Join(dir, ".tmp-seg-123"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := s2.Names()
	want := slices.Clone(names)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("Names after reopen = %v, want %v", got, want)
	}
	if n := s2.Segments("a"); n != 2 {
		t.Fatalf("chain length of a after reopen = %d, want 2", n)
	}
	elems, _, err := s2.Load("a")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(elems, after) {
		t.Fatal("replay after reopen mismatch")
	}
	if _, err := os.Stat(filepath.Join(dir, ".tmp-seg-123")); !os.IsNotExist(err) {
		t.Fatal("stale temp file survived reopen")
	}
}

func TestStoreCorruptSegmentFails(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	elems := seqElems(200, 13)
	if err := s.AppendFull("s", elems, testMeta(elems)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Flip a byte in the middle of the one segment file on disk.
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("ReadDir: %v (%d entries)", err, len(ents))
	}
	path := filepath.Join(dir, ents[0].Name())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, _, err := s2.Load("s"); err == nil {
		t.Fatal("Load of corrupt segment succeeded")
	}
}

// TestFullAppendPrunesChain checks the compaction a set's writer does: the
// threshold query, a full append that folds the chain down to one file, and
// a chain a crash left unpruned — a full segment with older segments before
// it — that replays correctly and is pruned by the next full append.
func TestFullAppendPrunesChain(t *testing.T) {
	for _, c := range []struct{ thresh, segs int }{{0, 1}, {0, 9}, {1, 0}, {3, 0}, {3, 1}, {3, 2}, {3, 5}} {
		s, err := Open(t.TempDir(), c.thresh)
		if err != nil {
			t.Fatal(err)
		}
		cur := seqElems(10, 3)
		for i := 0; i < c.segs; i++ {
			if i == 0 {
				err = s.AppendFull("s", cur, testMeta(cur))
			} else {
				cur = append(cur, uint64(1<<20+i))
				err = s.AppendDelta("s", cur[len(cur)-1:], nil, testMeta(cur))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if got, want := s.FullDue("s"), c.thresh > 0 && c.segs+1 >= c.thresh; got != want {
			t.Fatalf("threshold %d, %d segments: FullDue = %v, want %v", c.thresh, c.segs, got, want)
		}
	}

	dir := t.TempDir()
	s, err := Open(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	cur := seqElems(200, 7)
	if err := s.AppendFull("s", cur, testMeta(cur)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		add, del := []uint64{uint64(1<<30 + i)}, []uint64{cur[0]}
		cur = append(cur[1:], add...)
		if err := s.AppendDelta("s", add, del, testMeta(cur)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Merges() != 0 || s.Segments("s") != 3 {
		t.Fatalf("before the full append: %d merges, %d segments", s.Merges(), s.Segments("s"))
	}
	// Unsorted, with a duplicate: AppendFull sorts a copy.
	shuffled := append([]uint64{cur[len(cur)-1], cur[0]}, cur...)
	if err := s.AppendFull("s", shuffled, testMeta(cur)); err != nil {
		t.Fatal(err)
	}
	if files := segFiles(t, dir); len(files) != 1 || files[0] != segFileName("s", 4) || s.Segments("s") != 1 {
		t.Fatalf("files after a full append onto a chain: %v, want only seq 4", files)
	}
	if s.Merges() != 1 {
		t.Fatalf("Merges = %d, want 1", s.Merges())
	}
	if got, _, err := s.Load("s"); err != nil || !slices.Equal(got, cur) {
		t.Fatalf("replay after the full append: %d elements, want %d (err %v)", len(got), len(cur), err)
	}

	// A crash between a full append's rename and its removals: a delta,
	// then a full segment committed without the prune.
	add := []uint64{1 << 40}
	cur = append(slices.Clone(cur), add...)
	if err := s.AppendDelta("s", add, nil, testMeta(cur)); err != nil {
		t.Fatal(err)
	}
	cur = cur[5:]
	meta := testMeta(cur)
	meta.Full = true
	tmp, err := s.writeTemp(&Segment{Adds: cur, Meta: meta})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.commitTemp(tmp, "s", 6); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s, err = Open(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n := s.Segments("s"); n != 3 || !s.FullDue("s") {
		t.Fatalf("unpruned chain reopened with %d segments, FullDue %v", n, s.FullDue("s"))
	}
	if got, _, err := s.Load("s"); err != nil || !slices.Equal(got, cur) {
		t.Fatalf("replay of the unpruned chain: %d elements, want %d (err %v)", len(got), len(cur), err)
	}
	cur = cur[1:]
	if err := s.AppendFull("s", cur, testMeta(cur)); err != nil {
		t.Fatal(err)
	}
	if files := segFiles(t, dir); len(files) != 1 || files[0] != segFileName("s", 7) {
		t.Fatalf("files after pruning the unpruned chain: %v, want only seq 7", files)
	}
	if got, _, err := s.Load("s"); err != nil || !slices.Equal(got, cur) {
		t.Fatalf("replay after pruning: %d elements, want %d (err %v)", len(got), len(cur), err)
	}
}

func TestDeltaToUnpersistedSetFails(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AppendDelta("nope", []uint64{1}, nil, testMeta([]uint64{1})); err == nil {
		t.Fatal("delta append to unpersisted set succeeded")
	}
}

// TestMergeRacingAppends merges a chain over and over while deltas are
// appended to it: a merge holds the set's lock from its replay to its
// rename, so whatever interleaving happens every merge commits, the chain
// replays to every write, and no temp file is left behind.
func TestMergeRacingAppends(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cur := seqElems(2000, 3)
	if err := s.AppendFull("s", cur, testMeta(cur)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	merges := make(chan error, 1)
	go func() {
		defer close(merges)
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := s.Merge("s"); err != nil {
				merges <- err
				return
			}
		}
	}()
	for i := 0; i < 60; i++ {
		add, del := []uint64{uint64(1<<20 + i)}, []uint64{cur[0]}
		cur = append(cur[1:], add...)
		if err := s.AppendDelta("s", add, del, testMeta(cur)); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	if err := <-merges; err != nil {
		t.Fatal(err)
	}
	got, _, err := s.Load("s")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, cur) {
		t.Fatalf("replay after racing merges: %d elements, want %d", len(got), len(cur))
	}
	if s.Merges() == 0 {
		t.Fatal("no merge committed")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".seg") {
			t.Fatalf("stray file %s", e.Name())
		}
	}
}

// segFiles lists the segment files of dir in name order.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".seg") {
			t.Fatalf("stray file %s", e.Name())
		}
		files = append(files, e.Name())
	}
	return files
}

// TestReplayOldMergeLayout replays chains merged the way stores before
// this one merged: the full segment committed at the seq after the last
// one folded, with the folded files removed, or left behind by a crash.
// Both replay, take appends, and merge again.
func TestReplayOldMergeLayout(t *testing.T) {
	for _, pruned := range []bool{true, false} {
		dir := t.TempDir()
		s, err := Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		cur := seqElems(300, 5)
		if err := s.AppendFull("s", cur, testMeta(cur)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			add, del := []uint64{uint64(1<<30 + i)}, []uint64{cur[0]}
			cur = append(cur[1:], add...)
			if err := s.AppendDelta("s", add, del, testMeta(cur)); err != nil {
				t.Fatal(err)
			}
		}
		// The old merge: replay, write a full segment, commit it at last+1.
		meta := testMeta(cur)
		meta.Full = true
		tmp, err := s.writeTemp(&Segment{Adds: cur, Meta: meta})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.commitTemp(tmp, "s", 5); err != nil {
			t.Fatal(err)
		}
		if pruned {
			for seq := uint64(1); seq <= 4; seq++ {
				os.Remove(filepath.Join(dir, segFileName("s", seq)))
			}
		}
		s.Close()

		s, err = Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := s.Load("s")
		if err != nil || !slices.Equal(got, cur) {
			t.Fatalf("pruned=%v: replay of the old layout: %d elements, want %d (err %v)", pruned, len(got), len(cur), err)
		}
		add := []uint64{1 << 40}
		cur = append(slices.Clone(cur), add...)
		if err := s.AppendDelta("s", add, nil, testMeta(cur)); err != nil {
			t.Fatal(err)
		}
		if merged, err := s.Merge("s"); err != nil || !merged {
			t.Fatalf("pruned=%v: merge of the old layout: merged=%v err=%v", pruned, merged, err)
		}
		if files := segFiles(t, dir); len(files) != 1 || files[0] != segFileName("s", 6) {
			t.Fatalf("pruned=%v: files after merge %v, want only seq 6", pruned, files)
		}
		got, _, err = s.Load("s")
		if err != nil || !slices.Equal(got, cur) {
			t.Fatalf("pruned=%v: replay after merge: %d elements, want %d (err %v)", pruned, len(got), len(cur), err)
		}
		s.Close()
	}
}
