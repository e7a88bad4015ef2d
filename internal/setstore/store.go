package setstore

import (
	"fmt"
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
// on one set serialize.
type Store struct {
	dir    string
	thresh int

	mu    sync.Mutex
	index map[string][]uint64 // name → ascending segment seqs

	stripes [64]sync.Mutex

	merges atomic.Int64

	mergeCh chan string
	done    chan struct{}
	wg      sync.WaitGroup
}

// Open scans dir (creating it if needed) and starts the background merger
// when mergeThreshold > 0: a chain reaching that many segments is folded
// into one full segment off the caller's path. mergeThreshold <= 0
// disables background merging; Merge can still be called directly.
func Open(dir string, mergeThreshold int) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:    dir,
		thresh: mergeThreshold,
		index:  make(map[string][]uint64),
		done:   make(chan struct{}),
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
	if s.thresh > 0 {
		s.mergeCh = make(chan string, 1024)
		s.wg.Add(1)
		go s.mergeLoop()
	}
	return s, nil
}

// Close stops the background merger and waits for an in-flight merge.
func (s *Store) Close() error {
	select {
	case <-s.done:
		return nil
	default:
	}
	close(s.done)
	s.wg.Wait()
	return nil
}

// Merges returns the number of segment merges completed since Open.
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

// writeSegment encodes seg and commits it atomically: temp file in the
// same directory, fsync, rename. The rename is the durability point; the
// directory itself is not fsynced (a crash in that window can lose the
// newest segment but never corrupts the chain).
func (s *Store) writeSegment(name string, seq uint64, seg *Segment) error {
	data := AppendSegment(nil, seg)
	f, err := os.CreateTemp(s.dir, ".tmp-seg-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
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
	n := len(s.index[name])
	s.mu.Unlock()
	if s.thresh > 0 && n >= s.thresh {
		select {
		case s.mergeCh <- name:
		default:
			// Queue full: drop; the next append re-nominates the chain.
		}
	}
}

func sortedCopy(elems []uint64) []uint64 {
	out := slices.Clone(elems)
	slices.Sort(out)
	return slices.Compact(out)
}

// AppendFull persists the complete element list of a set as a new full
// segment. meta's sketch/digest/count must describe exactly elems.
func (s *Store) AppendFull(name string, elems []uint64, meta Meta) error {
	st := s.stripe(name)
	st.Lock()
	defer st.Unlock()
	meta.Full = true
	seg := &Segment{Adds: sortedCopy(elems), Meta: meta}
	seg.Meta.Count = uint64(len(seg.Adds))
	seq := s.nextSeq(name)
	if err := s.writeSegment(name, seq, seg); err != nil {
		return err
	}
	s.addSeq(name, seq)
	return nil
}

// AppendDelta persists the changes since the previous segment. meta must
// carry the *cumulative* count/sketch/digest after applying the delta —
// that is what keeps a cold chain able to answer estimates from its
// newest footer alone.
func (s *Store) AppendDelta(name string, adds, dels []uint64, meta Meta) error {
	st := s.stripe(name)
	st.Lock()
	defer st.Unlock()
	if s.Segments(name) == 0 {
		return fmt.Errorf("setstore: delta append to unpersisted set %q", name)
	}
	meta.Full = false
	seg := &Segment{Adds: sortedCopy(adds), Dels: sortedCopy(dels), Meta: meta}
	seq := s.nextSeq(name)
	if err := s.writeSegment(name, seq, seg); err != nil {
		return err
	}
	s.addSeq(name, seq)
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

// Load replays a chain into the full element list, sorted: starting from
// the newest full segment, each segment's adds and then its deletes apply in
// seq order — a merge of sorted lists, since that is how they are on disk.
// The returned Meta is the newest footer's.
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
	segs := make([]*Segment, len(seqs))
	start := 0
	for i := len(seqs) - 1; i >= 0; i-- {
		data, err := os.ReadFile(filepath.Join(s.dir, segFileName(name, seqs[i])))
		if err != nil {
			return nil, Meta{}, err
		}
		seg, err := DecodeSegment(data)
		if err != nil {
			return nil, Meta{}, fmt.Errorf("setstore: segment %s@%d: %w", name, seqs[i], err)
		}
		segs[i] = seg
		if seg.Meta.Full {
			start = i
			break
		}
	}
	var elems []uint64
	for _, seg := range segs[start:] {
		elems = foldSorted(elems, seg.Adds, seg.Dels)
	}
	meta := segs[len(segs)-1].Meta
	if uint64(len(elems)) != meta.Count {
		return nil, Meta{}, fmt.Errorf("setstore: set %q replays to %d elements, footer says %d", name, len(elems), meta.Count)
	}
	return elems, meta, nil
}

// foldSorted returns (cur ∪ adds) ∖ dels, sorted, for sorted duplicate-free
// inputs. With nothing to fold in it returns cur itself, and adds itself
// when that is all there is — a one-segment chain loads as decoded. It
// walks the writes, not the set: each is located in what is left of cur by
// binary search and the run before it copied whole, so a delta of a few
// elements costs one copy of cur.
func foldSorted(cur, adds, dels []uint64) []uint64 {
	if len(dels) == 0 {
		if len(adds) == 0 {
			return cur
		}
		if len(cur) == 0 {
			return adds
		}
	}
	out := make([]uint64, 0, len(cur)+len(adds))
	for len(adds) > 0 || len(dels) > 0 {
		// The next write, in element order; a delete of x also consumes an
		// add of x (adds land first, so x ends absent).
		del := len(adds) == 0 || (len(dels) > 0 && dels[0] <= adds[0])
		var x uint64
		if del {
			x, dels = dels[0], dels[1:]
			if len(adds) > 0 && adds[0] == x {
				adds = adds[1:]
			}
		} else {
			x, adds = adds[0], adds[1:]
		}
		i, found := slices.BinarySearch(cur, x)
		out = append(out, cur[:i]...)
		if cur = cur[i:]; found {
			cur = cur[1:]
		}
		if !del {
			out = append(out, x)
		}
	}
	return append(out, cur...)
}

// Merge folds a chain of 2+ segments into a single full segment. It
// reports whether a merge happened. Crash-safe: the merged segment is
// committed (with a higher seq) before the old files are removed, and
// replay always starts from the newest full segment, so a crash anywhere
// in between leaves a correct — merely unpruned — chain.
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
	newSeq := seqs[len(seqs)-1] + 1
	if err := s.writeSegment(name, newSeq, &Segment{Adds: elems, Meta: meta}); err != nil {
		return false, err
	}
	s.mu.Lock()
	s.index[name] = []uint64{newSeq}
	s.mu.Unlock()
	for _, seq := range seqs {
		os.Remove(filepath.Join(s.dir, segFileName(name, seq)))
	}
	s.merges.Add(1)
	return true, nil
}

func (s *Store) mergeLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case name := <-s.mergeCh:
			// Re-check under the current index: the chain may already have
			// been merged (duplicate nominations) or removed.
			if s.Segments(name) >= s.thresh {
				s.Merge(name) //nolint:errcheck // best effort; next append retries
			}
		}
	}
}

// Remove deletes every segment of a set.
func (s *Store) Remove(name string) error {
	st := s.stripe(name)
	st.Lock()
	defer st.Unlock()
	seqs := s.chain(name)
	s.mu.Lock()
	delete(s.index, name)
	s.mu.Unlock()
	var firstErr error
	for _, seq := range seqs {
		if err := os.Remove(filepath.Join(s.dir, segFileName(name, seq))); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
