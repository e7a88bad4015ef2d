package core

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"pbs/internal/bch"
	"pbs/internal/workload"
)

// TestHandleRoundRejectsOverlongScopeCount builds a round header whose scope
// count is a 17-group uvarint: sixteen continued zero groups and a final 1,
// which a reader that shifted the last group out would take for "no scopes"
// and answer with an empty reply.
func TestHandleRoundRejectsOverlongScopeCount(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 1000, D: 10, Seed: 3})
	bob, err := NewBob(p.B, planFor(t, 10, 5))
	if err != nil {
		t.Fatal(err)
	}
	w := newTestWriter()
	w.WriteUvarint(1) // round
	for i := 0; i < 16; i++ {
		w.WriteBits(0x10, 5)
	}
	w.WriteBits(0x01, 5)
	reply, err := bob.HandleRound(w.Bytes())
	if err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("HandleRound = %x, %v; want a uvarint overflow error", reply, err)
	}
}

// roundBudget is the most heap objects one steady-state round —
// BuildRound, HandleRound and AbsorbReply together — may allocate: the two
// messages, the round's array of over layers, the doubling list of surviving
// scopes, and the closures of three fan-outs (8 to 18 as measured). What it
// must not scale with is the number of scopes.
const roundBudget = 32

// TestBulkRoundAllocationBudget runs sessions at d = 5,000 (1,400 groups)
// and d = 1,000 (280 groups) over shared snapshots with
// adaptive re-planning on, so round 2 runs at another (m, t) than round 1,
// and from the third session on — the pooled scratch has seen both shapes by
// then — holds every round to roundBudget allocations. A codeword, bin-sum
// buffer or scratch sketch (bch.New) per scope, or a scratch thrown away when
// the shape flips, is hundreds of times over it. The sessions are identical,
// and the budget is held to the best of them: under the race detector
// sync.Pool drops a quarter of what it is handed, and a session that drew an
// empty scratch pays to grow it.
func TestBulkRoundAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two 100k-element sets")
	}
	// A collection empties the scratch pools; that cost is the collector's.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, d := range []int{5000, 1000} {
		p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 100000, D: d, Seed: int64(d)})
		// Sized for 1.4·d, as a session sizes its plan from a scaled-up
		// estimate: no group overflows its capacity, so round 2 holds
		// survivors only and is re-planned (a split would replay the plan).
		plan := planFor(t, d*14/10, uint64(d)+1)
		plan.Parallelism = 1
		cfg := Config{SigBits: plan.SigBits, Seed: plan.Seed}
		snapA, err := NewSnapshot(p.A, cfg)
		if err != nil {
			t.Fatal(err)
		}
		snapB, err := NewSnapshot(p.B, cfg)
		if err != nil {
			t.Fatal(err)
		}
		best := map[int]uint64{} // round -> fewest allocations any warm session made in it
		for session := 0; session < 12; session++ {
			alice, err := NewAliceFromSnapshot(snapA, plan)
			if err != nil {
				t.Fatal(err)
			}
			bob, err := NewBobFromSnapshot(snapB, plan)
			if err != nil {
				t.Fatal(err)
			}
			alice.EnableAdaptive()
			bob.EnableAdaptive()
			var before, after runtime.MemStats
			for !alice.Done() {
				runtime.ReadMemStats(&before)
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
				runtime.ReadMemStats(&after)
				n, round := after.Mallocs-before.Mallocs, alice.Rounds()
				if was, seen := best[round]; session >= 2 && (!seen || n < was) {
					best[round] = n
				}
			}
			if alice.Rounds() < 2 || alice.Replans() == 0 {
				t.Fatalf("d=%d: %d rounds, %d re-plans: no (m, t) flip to hold the budget across",
					d, alice.Rounds(), alice.Replans())
			}
			assertSameSet(t, alice.Difference(), p.Diff)
		}
		for round, n := range best {
			if n > roundBudget {
				t.Errorf("d=%d (%d groups) round %d: %d allocations, budget %d", d, plan.Groups, round, n, roundBudget)
			}
		}
	}
}

// BenchmarkEncodeParity encodes one group's parity bitmap, half its bins
// odd, into a codeword — the per-scope kernel of BuildRound and HandleRound
// — at the bulk plan's shape and at the smallest.
func BenchmarkEncodeParity(b *testing.B) {
	for _, shape := range []struct {
		m uint
		t int
	}{{8, 12}, {6, 8}} {
		b.Run(fmt.Sprintf("m=%d/t=%d", shape.m, shape.t), func(b *testing.B) {
			n := uint64(1)<<shape.m - 1
			set := make([]uint64, 3*n)
			for i := range set {
				set[i] = uint64(i+1) * 0x9E3779B97F4A7C15
			}
			sums, parity := make([]uint64, n+1), make([]uint64, parityWords(n))
			binFold(set, 42, n, sums, parity)
			sketch := bch.MustNew(shape.m, shape.t)
			b.ReportAllocs()
			for b.Loop() {
				sketch.Reset()
				sketch.AddBitmap(parity)
			}
		})
	}
}

// BenchmarkBulkSession runs one session of the bulk shape per iteration —
// |S| = 100k, d = 5,000, adaptive re-planning on — after 250 writes applied
// to Alice's set through Snapshot.Apply, which the session's snapshot then
// absorbs. Half the writes heal a difference (Alice adds an element only Bob
// holds) and half open one (she removes an element both hold), so d holds.
func BenchmarkBulkSession(b *testing.B) {
	benchSession(b, 100000, 5000, 5000*14/10, 250, 5, 5000+1)
}

// BenchmarkWarmSession is the warm small sync as one in-process session
// per iteration: |S| = 2k, d = 20, a plan sized for the speculative
// 1.38·128, and 5 writes to Alice (two heal and three open a difference,
// then the other way round). Bob's snapshot is reused and never written,
// as a server's is between its writers.
func BenchmarkWarmSession(b *testing.B) {
	benchSession(b, 2000, 20, 128*138/100, 5, 20, 21)
}

// BenchmarkChurnSession is the large-set churn sync as one in-process
// session per iteration: |S| = 100k, d = 100, and 50 writes to Alice (half
// heal and half open a difference) applied through Snapshot.Apply before
// each session; Bob's snapshot is reused. Most sessions take a round two,
// whose surviving whole groups of about 2.9k elements both endpoints read
// from the rows their shapes keep, with the lag and Alice's toggles on top.
func BenchmarkChurnSession(b *testing.B) {
	benchSession(b, 100000, 100, 100*14/10, 50, 58, 101)
}

// benchSession runs one session per iteration between Alice's snapshot,
// after writes applied through Apply, and one snapshot of Bob's that serves
// every session.
func benchSession(b *testing.B, size, d, planD, writes int, workloadSeed int64, planSeed uint64) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: size, D: d, BOnlyFrac: 0.5, Seed: workloadSeed})
	plan := planFor(b, planD, planSeed)
	cfg := Config{SigBits: plan.SigBits, Seed: plan.Seed}
	snapA, err := NewSnapshot(p.A, cfg)
	if err != nil {
		b.Fatal(err)
	}
	snapB, err := NewSnapshot(p.B, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var bOnly, common []uint64
	for _, x := range p.B {
		if snapA.Contains(x) {
			common = append(common, x)
		} else {
			bOnly = append(bOnly, x)
		}
	}
	rng := rand.New(rand.NewPCG(uint64(workloadSeed), uint64(workloadSeed)))
	take := func(pool *[]uint64) uint64 {
		i, last := rng.IntN(len(*pool)), len(*pool)-1
		x := (*pool)[i]
		(*pool)[i] = (*pool)[last]
		*pool = (*pool)[:last]
		return x
	}
	add, remove := make([]uint64, 0, writes), make([]uint64, 0, writes)
	b.ReportAllocs()
	for iter := 0; b.Loop(); iter++ {
		heals := writes/2 + writes%2*(iter%2) // an odd write heals every other time
		add, remove = add[:0], remove[:0]
		for len(add) < heals {
			add = append(add, take(&bOnly))
		}
		for len(remove) < writes-heals {
			remove = append(remove, take(&common))
		}
		snapA = snapA.Apply(add, remove)
		bOnly, common = append(bOnly, remove...), append(common, add...)
		alice, err := NewAliceFromSnapshot(snapA, plan)
		if err != nil {
			b.Fatal(err)
		}
		bob, err := NewBobFromSnapshot(snapB, plan)
		if err != nil {
			b.Fatal(err)
		}
		alice.EnableAdaptive()
		bob.EnableAdaptive()
		if res, err := Drive(alice, bob, 0); err != nil || !res.Complete {
			b.Fatalf("session failed: %v", err)
		}
	}
}

// BenchmarkColdPartition is the partition a fresh snapshot pays for on its
// first read. Each iteration wraps a copy of sorted elements, so the sort
// check and the partition are all it times:
//   - cold_hosted: a cold hosted sync's, once it has paged its set in: 20k
//     elements at G = 35, m = 6, whose table is folded on the first read;
//     a round-one Bob reads it uncut, so the cut is left out;
//   - no-table: 2k elements at the same shape, over |S|, so no table on
//     the first read; the groups are cut too;
//   - 100k: the shape large_set_churn builds at set-up (G = 35, m = 6 on
//     100k), its table folded on the first read; the groups are cut too.
func BenchmarkColdPartition(b *testing.B) {
	for _, bc := range []struct {
		name       string
		size       int
		table, cut bool
	}{
		{"cold_hosted", 20000, true, false},
		{"no-table", 2000, false, true},
		{"100k", 100000, true, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: bc.size, D: 1, Seed: 51})
			elems := sortedU64(p.A)
			plan := Plan{M: 6, T: 5, Groups: 35, MaxRounds: DefaultMaxRounds, SigBits: 32, Seed: 0xC01D}
			cfg := Config{SigBits: plan.SigBits, Seed: plan.Seed}
			buf := make([]uint64, len(elems))
			b.ReportAllocs()
			for b.Loop() {
				copy(buf, elems)
				snap, err := NewValidatedSnapshot(buf, cfg)
				if err != nil {
					b.Fatal(err)
				}
				part := snap.partitionFor(plan)
				if (part.table != nil) != bc.table {
					b.Fatalf("table kept=%v, want %v", part.table != nil, bc.table)
				}
				if bc.cut {
					part.group(0)
				}
			}
		})
	}
}
