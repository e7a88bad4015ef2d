package core

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"pbs/internal/hashutil"
	"pbs/internal/workload"
)

// assertShapeChecksums requires every up-to-date shape cached on snap to
// hold, for each group, the checksum a pass over the group yields.
func assertShapeChecksums(t *testing.T, snap *Snapshot) {
	t.Helper()
	mask := sigMask(snap.sigBits)
	snap.mu.Lock()
	defer snap.mu.Unlock()
	for groups, sh := range snap.shapes {
		if !sh.current(snap.log) {
			continue // not caught up yet: the predecessor's shape, checked there
		}
		for g := range sh.groups {
			if got, want := sh.groups[g].check, sh.group(g).checksum(mask); got != want {
				t.Fatalf("G=%d: group %d keeps checksum %#x, a recount gives %#x", groups, g, got, want)
			}
		}
	}
}

// TestMaintainedChecksumsMatchRecount reconciles over snapshots that Apply
// grows between sessions and recounts every checksum the endpoints maintain
// instead of recomputing: after every absorb, each cached shape's group
// checksums against a pass over the group, and after every AbsorbReply, each
// active scope's checksum against a pass over its working set. The cases are
// a small d, a d twenty times what its plan was sized for (so groups fail to
// decode and split, and split children verify), and the bulk d, each at
// Parallelism 1 and 4 with adaptive re-planning off and on. Alice's own
// writes open differences, so some recovered elements sit in her lag lists.
func TestMaintainedChecksumsMatchRecount(t *testing.T) {
	cases := []struct {
		d, planD, size, writes, own int
		splits                      bool
	}{
		{d: 20, planD: 30, size: 2000, writes: 5, own: 2},
		{d: 400, planD: 20, size: 8000, writes: 20, own: 10, splits: true},
		{d: 5000, planD: 7000, size: 40000, writes: 250, own: 100},
	}
	for _, c := range cases {
		for _, par := range []int{1, 4} {
			for _, adaptive := range []bool{false, true} {
				name := fmt.Sprintf("d=%d/planned=%d/par=%d/adaptive=%v", c.d, c.planD, par, adaptive)
				t.Run(name, func(t *testing.T) {
					p := workload.MustGenerate(workload.Config{UniverseBits: 31, SizeA: c.size, D: c.d, BOnlyFrac: 0.5, Seed: int64(c.d)})
					plan := planFor(t, c.planD, uint64(c.d)+3)
					plan.Parallelism = par
					cfg := Config{SigBits: plan.SigBits, Seed: plan.Seed}
					snapA, err := NewSnapshot(p.A, cfg)
					if err != nil {
						t.Fatal(err)
					}
					snapB, err := NewSnapshot(p.B, cfg)
					if err != nil {
						t.Fatal(err)
					}
					// Both sides take the same writes — elements they share leave,
					// and elements above the generator's 31-bit universe join —
					// and Alice takes c.own of each kind on her own, each one a
					// new difference.
					inDiff := map[uint64]bool{}
					for _, x := range p.Diff {
						inDiff[x] = true
					}
					var common []uint64
					for _, x := range p.A {
						if !inDiff[x] {
							common = append(common, x)
						}
					}
					rng := rand.New(rand.NewPCG(uint64(c.d), uint64(par)))
					fresh := map[uint64]bool{}
					batch := func(n int) (add, remove []uint64) {
						for len(add) < n {
							if x := 1<<31 | uint64(rng.Uint32()>>1); !fresh[x] {
								fresh[x] = true
								add = append(add, x)
							}
						}
						for range n {
							i := rng.IntN(len(common))
							remove = append(remove, common[i])
							common[i] = common[len(common)-1]
							common = common[:len(common)-1]
						}
						return add, remove
					}
					want := p.Diff
					split := false
					for session := 0; session < 3; session++ {
						if session > 0 {
							add, remove := batch(c.writes)
							snapA, snapB = snapA.Apply(add, remove), snapB.Apply(add, remove)
							snapA = snapA.Apply(batch(c.own))
							want = symDiffSorted(snapA.Elements(), snapB.Elements())
						}
						alice, err := NewAliceFromSnapshot(snapA, plan)
						if err != nil {
							t.Fatal(err)
						}
						bob, err := NewBobFromSnapshot(snapB, plan)
						if err != nil {
							t.Fatal(err)
						}
						assertShapeChecksums(t, snapA)
						assertShapeChecksums(t, snapB)
						if adaptive {
							alice.EnableAdaptive()
							bob.EnableAdaptive()
						}
						for !alice.Done() {
							if alice.Rounds() == DefaultMaxRounds {
								t.Fatalf("session %d: no convergence in %d rounds", session, DefaultMaxRounds)
							}
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
							for _, sc := range alice.active {
								split = split || sc.id.path != ""
								if recount := sc.w.checksum(alice.sigMask); sc.checksum != recount {
									t.Fatalf("session %d round %d: scope %d/%q keeps checksum %#x, a recount gives %#x",
										session, alice.Rounds(), sc.id.group, sc.id.path, sc.checksum, recount)
								}
							}
						}
						assertSameSet(t, alice.Difference(), want)
					}
					if c.splits && !split {
						t.Fatal("no group split: the case wants split children")
					}
				})
			}
		}
	}
}

// TestAbsorbReplyTogglesBackOut has a peer report, in round 1, an element
// Alice lacks — she toggles it into her over layer — and in round 2 the same
// element again, which must toggle it back out: the one membership test the
// round's worker makes has to see the over layer, or the checksum it hands
// the merge no longer matches the working set.
func TestAbsorbReplyTogglesBackOut(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 2000, D: 0, Seed: 9})
	plan := planFor(t, 20, 9)
	alice, err := NewAlice(p.A, plan)
	if err != nil {
		t.Fatal(err)
	}
	a := sortedU64(slices.Clone(p.A))
	x := uint64(1)
	for alice.sd.groupOf(x, plan.Groups) != 0 || inSorted(a, x) {
		x++
	}
	c0 := alice.active[0].checksum
	// Scope 0 is sent x with Bob's checksum c0, the one it had before x;
	// every other scope is sent nothing, with its own checksum, and verifies.
	reply := func() []byte {
		n := uint64(1)<<alice.curM - 1
		w := newTestWriter()
		for i, sc := range alice.active {
			w.WriteBool(true)
			if i > 0 {
				w.WriteUvarint(0)
				w.WriteBits(sc.checksum, plan.SigBits)
				continue
			}
			pos := hashutil.Bin(x, sc.binSeed, n)
			w.WriteUvarint(1)
			w.WriteBits(pos, alice.curM)
			w.WriteBits(sc.binSums[pos]^x, plan.SigBits)
			w.WriteBits(c0, plan.SigBits)
		}
		return w.Bytes()
	}
	for round := 1; round <= 2; round++ {
		if _, err := alice.BuildRound(); err != nil {
			t.Fatal(err)
		}
		if err := alice.AbsorbReply(reply()); err != nil {
			t.Fatal(err)
		}
		for _, sc := range alice.active {
			if want := sc.w.checksum(alice.sigMask); sc.checksum != want {
				t.Fatalf("round %d: scope %d keeps checksum %#x, a recount gives %#x", round, sc.id.group, sc.checksum, want)
			}
		}
		if round == 1 && (len(alice.active) != 1 || !slices.Equal(alice.active[0].w.over, []uint64{x})) {
			t.Fatalf("round 1: want scope 0 alone active with %#x toggled in", x)
		}
	}
	if !alice.Done() || len(alice.Difference()) != 0 {
		t.Fatalf("after x came back out: done=%v, difference %x", alice.Done(), alice.Difference())
	}
}

// TestAbsorbReplyRejectsRepeatedPosition sends one scope the same position
// twice. Bob's decoder lists positions in ascending order, and the merge
// trusts the worker's checksum only because that makes every accepted
// element distinct, so the reply must be refused, the scope left as it was.
func TestAbsorbReplyRejectsRepeatedPosition(t *testing.T) {
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: 2000, D: 10, Seed: 4})
	plan := planFor(t, 10, 4)
	alice, err := NewAlice(p.A, plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.BuildRound(); err != nil {
		t.Fatal(err)
	}
	w := newTestWriter()
	for i, sc := range alice.active {
		w.WriteBool(true)
		if i > 0 {
			w.WriteUvarint(0)
			w.WriteBits(0, plan.SigBits)
			continue
		}
		w.WriteUvarint(2)
		w.WriteBits(1, alice.curM)
		w.WriteBits(1, alice.curM)
		w.WriteBits(sc.binSums[1], plan.SigBits)
		w.WriteBits(sc.binSums[1], plan.SigBits)
		w.WriteBits(0, plan.SigBits)
	}
	c0 := alice.active[0].checksum
	err = alice.AbsorbReply(w.Bytes())
	if err == nil || !strings.Contains(err.Error(), "not ascending") {
		t.Fatalf("AbsorbReply = %v, want a repeated-position error", err)
	}
	if sc := alice.active[0]; sc.checksum != c0 || len(sc.w.over) != 0 {
		t.Fatal("a refused reply changed the scope")
	}
}
