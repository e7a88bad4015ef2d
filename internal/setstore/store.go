package setstore

import (
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Store manages one directory of segment chains, one chain per named set.
// Files are named "<escaped name>@<seq>.seg"; the chain is the ascending
// seq order. All methods are safe for concurrent use; operations on
// different sets proceed in parallel (per-name lock stripes), operations
// on one set serialize — except that appends write and fsync their
// segment before taking the lock, and only commit it under it.
type Store struct {
	dir    string
	thresh int

	mu    sync.Mutex
	index map[string][]uint64 // name → ascending segment seqs

	stripes [64]sync.Mutex

	merges atomic.Int64
}

// Open scans dir, creating it if needed. mergeThreshold is the chain
// length a set's writer must not reach: FullDue tells it when its next
// segment has to be a full one, whose append prunes the chain. The store
// runs nothing in the background. mergeThreshold <= 0 never asks for a
// full segment; Merge can still be called directly.
func Open(dir string, mergeThreshold int) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:    dir,
		thresh: mergeThreshold,
		index:  make(map[string][]uint64),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name, seq, ok := parseSegName(e.Name())
		if !ok {
			// Stale temp files from an interrupted flush are garbage by
			// construction (rename is the commit point); sweep them.
			if strings.HasPrefix(e.Name(), ".tmp-") {
				os.Remove(filepath.Join(dir, e.Name()))
			}
			continue
		}
		s.index[name] = append(s.index[name], seq)
	}
	for name := range s.index {
		slices.Sort(s.index[name])
	}
	return s, nil
}

// Close releases nothing: every write has committed or failed by the time
// its call returns.
func (s *Store) Close() error { return nil }

// Merges returns the number of chains folded since Open: by Merge, or by a
// full append onto an existing chain.
func (s *Store) Merges() int64 { return s.merges.Load() }

func segFileName(name string, seq uint64) string {
	return url.PathEscape(name) + "@" + fmt.Sprintf("%016x", seq) + ".seg"
}

func parseSegName(file string) (name string, seq uint64, ok bool) {
	base, found := strings.CutSuffix(file, ".seg")
	if !found {
		return "", 0, false
	}
	at := strings.LastIndexByte(base, '@')
	if at < 0 {
		return "", 0, false
	}
	seq, err := strconv.ParseUint(base[at+1:], 16, 64)
	if err != nil {
		return "", 0, false
	}
	name, err = url.PathUnescape(base[:at])
	if err != nil {
		return "", 0, false
	}
	return name, seq, true
}

func (s *Store) stripe(name string) *sync.Mutex {
	return &s.stripes[hashName(name)&63]
}

// hashName is FNV-1a 64 over the set name, used only for lock striping.
func hashName(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

func (s *Store) chain(name string) []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.index[name])
}

// Names returns every set with at least one persisted segment.
func (s *Store) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.index))
	for name := range s.index {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Segments returns the chain length of one set (0 when not persisted).
func (s *Store) Segments(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index[name])
}

// FullDue reports whether one more delta would bring name's chain to the
// merge threshold: its writer's next segment must then be a full one.
func (s *Store) FullDue(name string) bool {
	return s.thresh > 0 && s.Segments(name)+1 >= s.thresh
}

// writeTemp encodes seg into a new temp file in the store's directory and
// fsyncs it, before any lock is taken: committing it is the caller's
// rename (commitTemp).
func (s *Store) writeTemp(seg *Segment) (string, error) {
	data := AppendSegment(nil, seg)
	f, err := os.CreateTemp(s.dir, ".tmp-seg-*")
	if err != nil {
		return "", err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", err
	}
	return tmp, nil
}

// commitTemp renames a written temp file into name's chain as segment seq,
// or removes it if that fails. The rename is the durability point; the
// directory itself is not fsynced (a crash in that window can lose the
// newest segment but never corrupts the chain).
func (s *Store) commitTemp(tmp, name string, seq uint64) error {
	if err := os.Rename(tmp, filepath.Join(s.dir, segFileName(name, seq))); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

func (s *Store) nextSeq(name string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seqs := s.index[name]; len(seqs) > 0 {
		return seqs[len(seqs)-1] + 1
	}
	return 1
}

func (s *Store) addSeq(name string, seq uint64) {
	s.mu.Lock()
	s.index[name] = append(s.index[name], seq)
	s.mu.Unlock()
}

// pruneLocked makes seq, a full segment just committed, the whole of name's
// chain: the segments before it are superseded and removed. Replay starts
// from the newest full segment, so a crash before the removals leaves a
// correct chain, merely unpruned, that the next full append prunes.
// Requires name's stripe lock.
func (s *Store) pruneLocked(name string, seq uint64) {
	s.mu.Lock()
	old := s.index[name]
	s.index[name] = []uint64{seq}
	s.mu.Unlock()
	for _, o := range old {
		if o != seq {
			os.Remove(filepath.Join(s.dir, segFileName(name, o)))
		}
	}
	s.merges.Add(1)
}

func strictlyIncreasing(elems []uint64) bool {
	for i := 1; i < len(elems); i++ {
		if elems[i-1] >= elems[i] {
			return false
		}
	}
	return true
}

func sortedCopy(elems []uint64) []uint64 {
	out := slices.Clone(elems)
	slices.Sort(out)
	return slices.Compact(out)
}

// AppendFull persists the complete element list of a set as a new full
// segment, which supersedes, and prunes, the set's chain before it.
// meta's sketch/digest/count must describe exactly elems. elems is read,
// not kept; it is copied only if it is not strictly increasing.
func (s *Store) AppendFull(name string, elems []uint64, meta Meta) error {
	meta.Full = true
	if !strictlyIncreasing(elems) {
		elems = sortedCopy(elems)
	}
	seg := &Segment{Adds: elems, Meta: meta}
	seg.Meta.Count = uint64(len(seg.Adds))
	return s.appendChain(name, seg)
}

// AppendDelta persists the changes since the previous segment. meta must
// carry the *cumulative* count/sketch/digest after applying the delta —
// that is what keeps a cold chain able to answer estimates from its
// newest footer alone.
func (s *Store) AppendDelta(name string, adds, dels []uint64, meta Meta) error {
	meta.Full = false
	return s.appendChain(name, &Segment{Adds: sortedCopy(adds), Dels: sortedCopy(dels), Meta: meta})
}

// appendChain writes seg and commits it as the next segment of name's chain.
// The write and its fsync happen before the set's stripe lock is taken, so
// a Load of the set, or of another on its stripe, waits for a rename, not
// for the disk. Appends to one set land in the order they take the lock.
// A full segment appended to an existing chain prunes it.
func (s *Store) appendChain(name string, seg *Segment) error {
	tmp, err := s.writeTemp(seg)
	if err != nil {
		return err
	}
	st := s.stripe(name)
	st.Lock()
	defer st.Unlock()
	chained := s.Segments(name) > 0
	if !seg.Meta.Full && !chained {
		os.Remove(tmp)
		return fmt.Errorf("setstore: delta append to unpersisted set %q", name)
	}
	seq := s.nextSeq(name)
	if err := s.commitTemp(tmp, name, seq); err != nil {
		return err
	}
	s.addSeq(name, seq)
	if seg.Meta.Full && chained {
		s.pruneLocked(name, seq)
	}
	return nil
}

// Meta returns the newest segment's footer metadata with a tail-only read
// — no element bytes touched.
func (s *Store) Meta(name string) (Meta, error) {
	st := s.stripe(name)
	st.Lock()
	defer st.Unlock()
	seqs := s.chain(name)
	if len(seqs) == 0 {
		return Meta{}, fmt.Errorf("setstore: set %q not persisted", name)
	}
	return readMetaFile(filepath.Join(s.dir, segFileName(name, seqs[len(seqs)-1])))
}

func readMetaFile(path string) (Meta, error) {
	f, err := os.Open(path)
	if err != nil {
		return Meta{}, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return Meta{}, err
	}
	size := fi.Size()
	if size < int64(tailLen) {
		return Meta{}, fmt.Errorf("setstore: segment %s too short", path)
	}
	tail := make([]byte, tailLen)
	if _, err := f.ReadAt(tail, size-int64(tailLen)); err != nil {
		return Meta{}, err
	}
	if string(tail[12:]) != segMagic {
		return Meta{}, fmt.Errorf("setstore: bad segment magic in %s", path)
	}
	footerLen := int64(uint32(tail[0]) | uint32(tail[1])<<8 | uint32(tail[2])<<16 | uint32(tail[3])<<24)
	if footerLen > size-int64(tailLen) {
		return Meta{}, fmt.Errorf("setstore: footer length out of range in %s", path)
	}
	buf := make([]byte, footerLen+int64(tailLen))
	if _, err := f.ReadAt(buf, size-int64(len(buf))); err != nil {
		return Meta{}, err
	}
	// Reuse the in-memory validator on the footer+tail suffix: it checks
	// magic, bounds, and the footer CRC (body CRC is not consulted).
	return DecodeMeta(buf)
}

// Load replays a chain into the full element list, sorted and strictly
// increasing: the newest full segment's adds, then each later segment's
// adds and then its deletes, in seq order. The deltas are read first,
// newest to oldest, and netted to the newest write of each element they
// touch; the full segment is then decoded with room for the net adds and
// the net writes folded into it in place, so the returned slice is the
// load's one copy of the set and the caller owns it. The returned Meta is
// the newest footer's.
func (s *Store) Load(name string) ([]uint64, Meta, error) {
	st := s.stripe(name)
	st.Lock()
	defer st.Unlock()
	return s.loadLocked(name)
}

func (s *Store) loadLocked(name string) ([]uint64, Meta, error) {
	seqs := s.chain(name)
	if len(seqs) == 0 {
		return nil, Meta{}, fmt.Errorf("setstore: set %q not persisted", name)
	}
	buf := readBufs.Get().(*[]byte)
	defer readBufs.Put(buf)
	var (
		meta       Meta
		base       []uint64
		adds, dels []uint64 // net writes of the deltas read so far; disjoint
	)
	for i := len(seqs) - 1; i >= 0; i-- {
		data, err := s.readSegment(name, seqs[i], buf)
		if err != nil {
			return nil, Meta{}, err
		}
		seg, err := decodeSegment(data, len(adds))
		if err != nil {
			return nil, Meta{}, fmt.Errorf("setstore: segment %s@%d: %w", name, seqs[i], err)
		}
		if i == len(seqs)-1 {
			meta = seg.Meta
		}
		if seg.Meta.Full {
			base = seg.Adds
			break
		}
		adds, dels = netOlder(adds, dels, seg.Adds, seg.Dels)
	}
	elems := foldInPlace(base, adds, dels)
	if uint64(len(elems)) != meta.Count {
		return nil, Meta{}, fmt.Errorf("setstore: set %q replays to %d elements, footer says %d", name, len(elems), meta.Count)
	}
	return elems, meta, nil
}

// readBufs holds the buffers Load reads segment files into; nothing decoded
// from one aliases it.
var readBufs = sync.Pool{New: func() any { return new([]byte) }}

// readSegment reads one segment file into *buf, growing it as needed.
func (s *Store) readSegment(name string, seq uint64, buf *[]byte) ([]byte, error) {
	f, err := os.Open(filepath.Join(s.dir, segFileName(name, seq)))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := int(fi.Size())
	if cap(*buf) < size {
		*buf = make([]byte, size)
	}
	data := (*buf)[:size]
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, err
	}
	return data, nil
}

// netOlder folds an older delta's writes under the net writes of the newer
// deltas: an element's newest write wins, and within one segment its
// delete (adds land first, so an element in both ends absent). It filters
// the older slices in place.
func netOlder(adds, dels, olderAdds, olderDels []uint64) ([]uint64, []uint64) {
	touched := func(x uint64) bool {
		_, inAdds := slices.BinarySearch(adds, x)
		_, inDels := slices.BinarySearch(dels, x)
		return inAdds || inDels
	}
	olderAdds = slices.DeleteFunc(olderAdds, func(x uint64) bool {
		_, deleted := slices.BinarySearch(olderDels, x)
		return deleted || touched(x)
	})
	olderDels = slices.DeleteFunc(olderDels, touched)
	adds, dels = append(adds, olderAdds...), append(dels, olderDels...)
	slices.Sort(adds)
	slices.Sort(dels)
	return adds, dels
}

// foldInPlace returns (cur ∪ adds) ∖ dels, sorted, for sorted duplicate-free
// inputs, in cur's array (grown only if its capacity lacks room for adds).
// It walks the writes, not the set, from the largest down: each is located
// in what is left of cur by binary search and the run above it moved up
// whole, by the room the adds still need — so the move never overwrites an
// element not yet moved — and one move at the end closes the gap deletes
// left. A delete of x also consumes an add of x (adds land first, so x
// ends absent).
func foldInPlace(cur, adds, dels []uint64) []uint64 {
	if len(adds) == 0 && len(dels) == 0 {
		return cur
	}
	out := slices.Grow(cur, len(adds))
	cur = out[:len(cur)]
	out = out[:len(cur)+len(adds)]
	w, r := len(out), len(cur) // out[w:] is written, cur[:r] not yet moved
	for len(adds) > 0 || len(dels) > 0 {
		del := len(adds) == 0 || (len(dels) > 0 && dels[len(dels)-1] >= adds[len(adds)-1])
		var x uint64
		if del {
			x, dels = dels[len(dels)-1], dels[:len(dels)-1]
			if len(adds) > 0 && adds[len(adds)-1] == x {
				adds = adds[:len(adds)-1]
			}
		} else {
			x, adds = adds[len(adds)-1], adds[:len(adds)-1]
		}
		i, found := slices.BinarySearch(cur[:r], x)
		above := i
		if found {
			above++
		}
		w -= copy(out[w-(r-above):w], cur[above:r])
		r = i
		if !del {
			w--
			out[w] = x
		}
	}
	if w > r {
		copy(out[r:], out[w:])
	}
	return out[:r+len(out)-w]
}

// Merge folds a chain of 2+ segments into a single full segment. It
// reports whether a merge happened. It holds the set's stripe lock from the
// replay to the rename, so no append lands in between: the merged segment
// is renamed over the last segment it folded, and the earlier files are
// removed (pruneLocked). Crash-safe: the rename replaces one segment with a
// full one holding the same state.
func (s *Store) Merge(name string) (bool, error) {
	st := s.stripe(name)
	st.Lock()
	defer st.Unlock()
	seqs := s.chain(name)
	if len(seqs) < 2 {
		return false, nil
	}
	elems, meta, err := s.loadLocked(name)
	if err != nil {
		return false, err
	}
	meta.Full = true
	tmp, err := s.writeTemp(&Segment{Adds: elems, Meta: meta})
	if err != nil {
		return false, err
	}
	last := seqs[len(seqs)-1]
	if err := s.commitTemp(tmp, name, last); err != nil {
		return false, err
	}
	s.pruneLocked(name, last)
	return true, nil
}
