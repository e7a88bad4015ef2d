package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"pbs"
)

// workload is one closed-loop traffic shape. Every client goroutine runs
// "write, sync, verify" and issues its next sync only after the previous
// one returned, so a slower system receives less load.
type workload struct {
	name string
	why  string

	setSize int // |A| ≈ |B| per set
	d0      int // steady |A△B| a sync reconciles
	churn   int // elements written before each sync (client Set.Add/Remove)
	clients int // closed-loop client goroutines, never more than nproc
	mux     bool

	// Hosted catalog (cold_hosted only): hostedSets persistent sets on a
	// DataDir with room for residentSets of them in memory; before every
	// updateEvery-th sync the server toggles a poolSize-element pool on one
	// uniformly drawn set through Server.HostedUpdate.
	hostedSets   int
	residentSets int
	updateEvery  int
	poolSize     int

	// tailQ is the quantile sync_tail_x divides by the median: the highest
	// of p99/p98/p95 that keeps at least ten samples beyond it at this
	// workload's sync rate on the 2-core reference box.
	tailQ float64
	// refUs is the reference kernel's nominal time for this workload's set
	// size: its median over the quiet runs on the 2-core reference box (see
	// ref.go and README.md).
	refUs float64
	// setupReps is how often set-up runs (the median is reported); the last
	// instance is the one measured.
	setupReps int
	// ladderSyncs caps the syncs the traced run replays rung by rung.
	ladderSyncs int
}

var workloads = []workload{
	{
		name: "warm_small", setSize: 2000, d0: 20, churn: 5, clients: 1,
		tailQ: 0.99, refUs: 56, setupReps: 7, ladderSyncs: 200,
		why: "1 warm TCP conn, |A|=2k, d=20: per-sync fixed cost (session engine, frame codec, Server.handle, syscalls, GC)",
	},
	{
		name: "mux_small", setSize: 2000, d0: 20, churn: 5, clients: 2, mux: true,
		tailQ: 0.95, refUs: 56, setupReps: 7, ladderSyncs: 200,
		why: "same sets, 2 clients on one MuxConn, a stream per sync: the same session work through muxLoop at CPU saturation",
	},
	{
		name: "large_set_churn", setSize: 100000, d0: 100, churn: 50, clients: 1,
		tailQ: 0.99, refUs: 4300, setupReps: 5, ladderSyncs: 200,
		why: "|A|=100k, d=100, 50 client writes per sync: |A|-proportional work (view rebuild, snapshot, partition, bin folding)",
	},
	{
		name: "bulk_diff", setSize: 100000, d0: 5000, churn: 250, clients: 1,
		tailQ: 0.95, refUs: 4300, setupReps: 5, ladderSyncs: 50,
		why: "|A|=100k, d=5000: d-proportional work (BCH encode/decode over ~1000 groups, Parallelism, multi-round cleanup)",
	},
	{
		name: "cold_hosted", setSize: 20000, d0: 16, clients: 1,
		hostedSets: 64, residentSets: 4, updateEvery: 4, poolSize: 8,
		tailQ: 0.99, refUs: 620, setupReps: 3, ladderSyncs: 200,
		why: "64 hosted sets x 20k on disk, 4 resident, uniform target: registry, setstore load/delta/merge, eviction; server writes",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled shrinks a workload for the unit tests: set sizes and the catalog
// divide by div, differences and churn shrink with them but stay large
// enough to exercise every code path.
func (w workload) scaled(div int) workload {
	if div <= 1 {
		return w
	}
	w.setSize = max(w.setSize/div, 200)
	w.d0 = min(w.d0, max(w.setSize/20, 8))
	w.churn = min(w.churn, w.d0/2)
	if w.hostedSets > 0 {
		w.hostedSets = max(w.hostedSets/8, 2*w.residentSets)
	}
	w.setupReps = 1
	w.ladderSyncs = max(w.ladderSyncs/div, 3)
	return w
}

// rngFor derives an independent generator per (seed, workload, stream), so
// every input of a run is a function of -seed alone.
func rngFor(seed uint64, w workload, stream uint64) *rand.Rand {
	h := uint64(14695981039346656037)
	for i := 0; i < len(w.name); i++ {
		h = (h ^ uint64(w.name[i])) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h+stream))
}

// genDistinct draws n distinct nonzero 32-bit elements (the protocol's
// default signature width).
func genDistinct(rng *rand.Rand, n int) []uint64 {
	seen := make(map[uint64]struct{}, n)
	out := make([]uint64, 0, n)
	for len(out) < n {
		x := uint64(rng.Uint32())
		if x == 0 {
			continue
		}
		if _, dup := seen[x]; dup {
			continue
		}
		seen[x] = struct{}{}
		out = append(out, x)
	}
	return out
}

// target is one client-side Set together with the harness's ground truth
// about how it differs from the server-side set it syncs against.
//
// Every element is in exactly one of four pools: common (in A and B),
// missing (in B only), extra (in A only) and fresh (in neither). Churn moves
// elements between pools and mirrors each move on the client Set; expect is
// missing ∪ extra, the exact A△B a sync must return.
type target struct {
	name string // registered set name ("" = the server's default set)
	set  *pbs.Set

	common, missing, extra, fresh []uint64
	expect                        map[uint64]struct{}

	// pool is the element block Server.HostedUpdate toggles in and out of
	// the hosted server-side set; poolIn says whether it is currently in.
	pool   []uint64
	poolIn bool

	adds, dels []uint64 // scratch for one churn batch
}

// newTarget splits elems into the server set B (returned) and the pools,
// and builds the client Set A = common ∪ extra with |A△B| = d0.
func newTarget(name string, elems []uint64, setSize, d0, poolSize int, opts ...pbs.Option) (*target, []uint64, error) {
	serverSet := elems[:setSize]
	rest := elems[setSize:]
	nMissing := d0 / 2
	nExtra := d0 - nMissing
	t := &target{
		name:    name,
		missing: append([]uint64(nil), serverSet[:nMissing]...),
		common:  append([]uint64(nil), serverSet[nMissing:]...),
		extra:   append([]uint64(nil), rest[:nExtra]...),
		pool:    rest[nExtra : nExtra+poolSize],
		fresh:   append([]uint64(nil), rest[nExtra+poolSize:]...),
		expect:  make(map[uint64]struct{}, 2*d0),
	}
	for _, x := range t.missing {
		t.expect[x] = struct{}{}
	}
	for _, x := range t.extra {
		t.expect[x] = struct{}{}
	}
	a := make([]uint64, 0, len(t.common)+len(t.extra))
	a = append(append(a, t.common...), t.extra...)
	set, err := pbs.NewSet(a, opts...)
	if err != nil {
		return nil, nil, err
	}
	t.set = set
	return t, serverSet, nil
}

// spareElems is how many elements beyond the server set newTarget needs:
// the initial extras, the hosted pool, and a fresh pool deep enough that
// drift never runs dry (extras return to it when healed).
func spareElems(w workload) int { return w.d0 + w.poolSize + 2*w.churn + 16 }

func take(s *[]uint64, i int) uint64 {
	x := (*s)[i]
	last := len(*s) - 1
	(*s)[i] = (*s)[last]
	*s = (*s)[:last]
	return x
}

// churn writes n elements to the client Set: about half heal existing
// differences (what applying the last sync's result would do) and half
// introduce new ones, so |A△B| stays within one element of d0 while its
// members turn over. It returns the wall time spent inside Set.Remove and
// Set.Add.
func (t *target) churn(rng *rand.Rand, n, d0 int) (time.Duration, error) {
	heal := n / 2
	if len(t.expect) > d0 {
		heal = n - n/2
	}
	heal = min(heal, len(t.missing)+len(t.extra))
	drift := n - heal
	t.adds, t.dels = t.adds[:0], t.dels[:0]

	// Healed elements rejoin their pools only after the drift picks, so one
	// batch never writes the same element twice.
	var healedCommon, healedFresh []uint64
	for i := 0; i < heal; i++ {
		if k := rng.IntN(len(t.missing) + len(t.extra)); k < len(t.missing) {
			x := take(&t.missing, k)
			t.adds = append(t.adds, x)
			healedCommon = append(healedCommon, x)
			delete(t.expect, x)
		} else {
			x := take(&t.extra, k-len(t.missing))
			t.dels = append(t.dels, x)
			healedFresh = append(healedFresh, x)
			delete(t.expect, x)
		}
	}
	for i := 0; i < drift; i++ {
		if rng.IntN(2) == 0 && len(t.fresh) > 0 {
			x := take(&t.fresh, rng.IntN(len(t.fresh)))
			t.adds = append(t.adds, x)
			t.extra = append(t.extra, x)
			t.expect[x] = struct{}{}
		} else {
			x := take(&t.common, rng.IntN(len(t.common)))
			t.dels = append(t.dels, x)
			t.missing = append(t.missing, x)
			t.expect[x] = struct{}{}
		}
	}
	t.common = append(t.common, healedCommon...)
	t.fresh = append(t.fresh, healedFresh...)

	start := time.Now()
	removed := t.set.Remove(t.dels...)
	added, err := t.set.Add(t.adds...)
	elapsed := time.Since(start)
	if err != nil {
		return elapsed, err
	}
	if removed != len(t.dels) || added != len(t.adds) {
		return elapsed, fmt.Errorf("churn wrote %d+%d elements, Set reports %d+%d", len(t.dels), len(t.adds), removed, added)
	}
	return elapsed, nil
}

// syncOptions are the options every wire sync of t runs under: the fast
// path (adaptive on by default), addressed to t's registered set.
func (t *target) syncOptions() []pbs.Option {
	opts := []pbs.Option{pbs.WithFastSync(true)}
	if t.name != "" {
		opts = append(opts, pbs.WithSetName(t.name))
	}
	return opts
}

// togglePool records a HostedUpdate that moved the pool into or out of the
// server-side set: none of its elements is in A, so all of them join or
// leave A△B.
func (t *target) togglePool() {
	t.poolIn = !t.poolIn
	for _, x := range t.pool {
		if t.poolIn {
			t.expect[x] = struct{}{}
		} else {
			delete(t.expect, x)
		}
	}
}

// verify compares a sync's learned difference element-wise with the ground
// truth.
func (t *target) verify(res *pbs.Result) error {
	if !res.Complete {
		return fmt.Errorf("sync incomplete after %d rounds", res.Rounds)
	}
	if len(res.Difference) != len(t.expect) {
		return fmt.Errorf("difference has %d elements, ground truth %d", len(res.Difference), len(t.expect))
	}
	for _, x := range res.Difference {
		if _, ok := t.expect[x]; !ok {
			return fmt.Errorf("difference contains %#x, which is not in A△B", x)
		}
	}
	return nil
}
