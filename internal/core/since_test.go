package core

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// TestSinceReplaysToCurrent grows a snapshot through random Apply batches
// (re-adding what was removed, removing what was added, and bursts past the
// re-base threshold) and keeps marks taken at random points. After every
// batch, each mark's Since applied to the marked snapshot's elements must
// give the current elements — while no re-base has come between, and ok is
// false once one has. The re-base rule is modelled here, not read off the
// log: more than |S|/rebaseFraction writes since the last one.
func TestSinceReplaysToCurrent(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	present := map[uint64]bool{}
	fresh := func() uint64 {
		for {
			if x := uint64(rng.Uint32()); x != 0 && !present[x] {
				return x
			}
		}
	}
	var elems []uint64
	for len(elems) < 2000 {
		x := fresh()
		present[x] = true
		elems = append(elems, x)
	}
	snap, err := NewSnapshot(elems, Config{})
	if err != nil {
		t.Fatal(err)
	}

	type marked struct {
		m     Mark
		elems []uint64
		epoch int
	}
	var marks []marked
	epoch, logged := 0, 0
	var recent []uint64 // added since some mark: candidates to cancel out
	var reads, stale int
	for step := 0; step < 300; step++ {
		if rng.IntN(4) == 0 {
			mk := marked{snap.Mark(), slices.Clone(snap.Elements()), epoch}
			if len(marks) < 8 {
				marks = append(marks, mk)
			} else {
				marks[rng.IntN(len(marks))] = mk
			}
		}
		size := rng.IntN(12)
		if step%37 == 36 {
			size = len(present) / 2 // a burst: re-base
		}
		live := make([]uint64, 0, len(present))
		for x := range present {
			live = append(live, x)
		}
		slices.Sort(live)
		var add, remove []uint64
		for i := 0; i < size; i++ {
			switch {
			case len(recent) > 0 && rng.IntN(3) == 0:
				// Take back an earlier add; if it has gone already, skip.
				x := recent[len(recent)-1]
				recent = recent[:len(recent)-1]
				if present[x] && !slices.Contains(remove, x) {
					remove = append(remove, x)
				}
			case rng.IntN(2) == 0 && len(live) > 0:
				x := live[rng.IntN(len(live))]
				if !slices.Contains(remove, x) {
					remove = append(remove, x)
				}
			default:
				x := fresh()
				if !slices.Contains(add, x) {
					add = append(add, x)
				}
			}
		}
		// Only now apply the batch to the model, so fresh draws see the
		// elements as they were.
		for _, x := range remove {
			delete(present, x)
		}
		for _, x := range add {
			present[x] = true
		}
		recent = append(recent, add...)
		snap = snap.Apply(add, remove)
		if logged += len(add) + len(remove); logged > snap.Len()/rebaseFraction {
			epoch, logged = epoch+1, 0
		}

		for i, mk := range marks {
			adds, removes, ok := snap.Since(mk.m)
			if ok != (mk.epoch == epoch) {
				t.Fatalf("step %d, mark %d: ok %v with the mark in epoch %d, the snapshot in %d", step, i, ok, mk.epoch, epoch)
			}
			if !ok {
				stale++
				continue
			}
			reads++
			if !slices.IsSorted(adds) || !slices.IsSorted(removes) {
				t.Fatalf("step %d, mark %d: Since returned unsorted writes", step, i)
			}
			if got := applySorted(mk.elems, adds, removes); !slices.Equal(got, snap.Elements()) {
				t.Fatalf("step %d, mark %d: marked elements with Since (+%d −%d) give %d elements, want %d",
					step, i, len(adds), len(removes), len(got), snap.Len())
			}
			if len(mk.elems)+len(adds)-len(removes) != snap.Len() {
				t.Fatalf("step %d, mark %d: Since nets %d adds and %d removes from %d to %d", step, i, len(adds), len(removes), len(mk.elems), snap.Len())
			}
		}
	}
	if epoch < 3 || reads == 0 || stale == 0 {
		t.Fatalf("re-bases %d, marks read %d, stale %d: the run exercises too little", epoch, reads, stale)
	}
}

// TestSinceCancelledWrites: writes that cancel out leave Since empty, in
// either order.
func TestSinceCancelledWrites(t *testing.T) {
	var elems []uint64
	for x := uint64(1); x <= 100; x++ {
		elems = append(elems, 2*x) // too many to re-base on four writes
	}
	snap, err := NewSnapshot(elems, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := snap.Mark()
	next := snap.Apply([]uint64{7}, []uint64{10}).Apply([]uint64{10}, nil).Apply(nil, []uint64{7})
	if adds, removes, ok := next.Since(m); !ok || len(adds)+len(removes) != 0 {
		t.Fatalf("Since = +%v −%v ok %v, want nothing, ok", adds, removes, ok)
	}
	if adds, removes, ok := snap.Since(m); !ok || len(adds)+len(removes) != 0 {
		t.Fatalf("a snapshot's Since of its own mark = +%v −%v ok %v", adds, removes, ok)
	}
}

// TestSinceRefusesForeignMarks: the zero Mark, and the mark of a snapshot
// built apart from the same elements, are not on the log.
func TestSinceRefusesForeignMarks(t *testing.T) {
	elems := []uint64{5, 9, 1 << 20}
	snap, err := NewSnapshot(elems, Config{})
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewValidatedSnapshot(slices.Clone(elems), Config{})
	if err != nil {
		t.Fatal(err)
	}
	next := snap.Apply([]uint64{7}, nil)
	for name, m := range map[string]Mark{"zero": {}, "twin": twin.Mark(), "twin successor": twin.Apply([]uint64{7}, nil).Mark()} {
		if _, _, ok := next.Since(m); ok {
			t.Errorf("Since of the %s mark reported ok", name)
		}
	}
	if _, _, ok := snap.Since(next.Mark()); ok {
		t.Error("Since of a successor's mark reported ok")
	}
}
