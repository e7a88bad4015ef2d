package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"reflect"
	"slices"
	"testing"

	"pbs/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/round_golden.json from this build")

const goldenPath = "testdata/round_golden.json"

// goldenTranscript is one session as the wire saw it: the SHA-256 of every
// BuildRound message and HandleRound reply in order, and of the learned
// difference (sorted, 8 bytes little-endian an element).
type goldenTranscript struct {
	Messages   []string `json:"messages"`
	Replies    []string `json:"replies"`
	Difference string   `json:"difference"`
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// goldenCase is one pinned session. planD is what the plan is sized for —
// below d it forces BCH decoding failures, hence 3-way splits and rounds of
// fold-path scopes; writes > 0 runs Alice over a snapshot that absorbed that
// many writes through Apply after its round-one table was built, so table
// rows read with lags on top are in the transcript too. tableOverB marks the
// case whose round-one table is over |B| (G·2^m = 256k words on 95k), which
// a responder's snapshot keeps only from its second session on. laterRows
// marks the cases whose first session leaves later-round rows on both
// snapshots for a warm second session to read (see runGolden): the others
// take no whole group past round one at a degree whose row pays.
type goldenCase struct {
	name           string
	sizeA, d       int
	planD          int
	writes         int
	wantSplit      bool
	workloadSeed   int64
	planSeed       uint64
	minRounds      int
	tablePathRound bool
	tableOverB     bool
	laterRows      bool
}

var goldenCases = []goldenCase{
	{name: "d=20", sizeA: 2000, d: 20, planD: 20, workloadSeed: 1601, planSeed: 161, tablePathRound: true, laterRows: true},
	{name: "d=100", sizeA: 100000, d: 100, planD: 100, workloadSeed: 1602, planSeed: 162, tablePathRound: true, laterRows: true},
	{name: "d=5000", sizeA: 100000, d: 5000, planD: 5000, workloadSeed: 1603, planSeed: 163, minRounds: 2, tableOverB: true},
	{name: "split", sizeA: 20000, d: 400, planD: 20, workloadSeed: 1604, planSeed: 164, minRounds: 3, wantSplit: true, tablePathRound: true},
	{name: "applied", sizeA: 100000, d: 100, planD: 100, writes: 50, workloadSeed: 1605, planSeed: 165, tablePathRound: true, laterRows: true},
}

// runGolden drives one session and records its transcript. With warm,
// both endpoints answer from snapshots that have already served the case
// once, so this is each shape's second read: Bob reads a round-one table in
// every case — on d=5000 one over |B|, which a first read does not keep —
// and both read the later-round rows the first session kept, with the lag
// and, for Alice, the session's toggles folded on top.
func runGolden(t *testing.T, gc goldenCase, parallelism int, adaptive, warm bool) goldenTranscript {
	t.Helper()
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: gc.sizeA, D: gc.d, Seed: gc.workloadSeed})
	plan := planFor(t, gc.planD, gc.planSeed)
	plan.Parallelism = parallelism
	if !warm {
		bob, err := NewBob(p.B, plan)
		if err != nil {
			t.Fatal(err)
		}
		return driveGolden(t, gc, p, newGoldenAlice(t, gc, p, plan), bob, adaptive)
	}
	snapB, err := NewSnapshot(p.B, Config{SigBits: plan.SigBits, Seed: plan.Seed})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewBobFromSnapshot(snapB, plan)
	if err != nil {
		t.Fatal(err)
	}
	if kept := cold.part.table != nil; kept == gc.tableOverB {
		t.Fatalf("first read: table kept=%v, the case wants %v (G=%d, m=%d, |B|=%d)", kept, !gc.tableOverB, plan.Groups, plan.M, len(p.B))
	}
	alice := newGoldenAlice(t, gc, p, plan)
	driveGolden(t, gc, p, alice, cold, adaptive)
	bob, err := NewBobFromSnapshot(snapB, plan)
	if err != nil {
		t.Fatal(err)
	}
	if bob.part.table == nil {
		t.Fatalf("the warm Bob holds no round-one table (G=%d, m=%d, |B|=%d)", plan.Groups, plan.M, len(p.B))
	}
	if alice, err = NewAliceFromSnapshot(alice.snap, plan); err != nil {
		t.Fatal(err)
	}
	if kept := len(alice.part.keptRows()) > 0 && len(bob.part.keptRows()) > 0; kept != gc.laterRows {
		t.Fatalf("later-round rows kept on both snapshots = %v, the case wants %v", kept, gc.laterRows)
	}
	return driveGolden(t, gc, p, alice, bob, adaptive)
}

// runGoldenLagged drives one session with both endpoints over a snapshot
// that holds a round-one table and a lag under it: each set S is cut and its
// shape read twice as S ∪ X, for a few dozen elements X neither set holds,
// and the session runs on the successor that removes X again. Every group
// X reached reads its row with its lag folded on top, in every case — on
// d=5000 from tables over |S|, which the second read keeps.
func runGoldenLagged(t *testing.T, gc goldenCase, parallelism int, adaptive bool) goldenTranscript {
	t.Helper()
	p := workload.MustGenerate(workload.Config{UniverseBits: 32, SizeA: gc.sizeA, D: gc.d, Seed: gc.workloadSeed})
	plan := planFor(t, gc.planD, gc.planSeed)
	plan.Parallelism = parallelism
	x := goldenLag(p, gc.workloadSeed)
	snapB, err := NewSnapshot(append(slices.Clone(p.B), x...), Config{SigBits: plan.SigBits, Seed: plan.Seed})
	if err != nil {
		t.Fatal(err)
	}
	snapB.partitionFor(plan)
	snapB.partitionFor(plan)
	snapB = snapB.Apply(nil, x)
	assertLaggedTable(t, snapB.partitionFor(plan))
	bob, err := NewBobFromSnapshot(snapB, plan)
	if err != nil {
		t.Fatal(err)
	}
	return driveGolden(t, gc, p, newLaggedAlice(t, gc, p, plan, x), bob, adaptive)
}

// goldenLag returns the X of runGoldenLagged: 48 elements of the 32-bit
// universe that neither set of the pair holds, nor newGoldenAlice's
// removals.
func goldenLag(p *workload.Pair, seed int64) []uint64 {
	held := make(map[uint64]bool, len(p.A)+len(p.B))
	for _, x := range p.A {
		held[x] = true
	}
	for _, x := range p.B {
		held[x] = true
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 40))
	var x []uint64
	for len(x) < 48 {
		if e := uint64(rng.Uint32()); e > 7 && !held[e] {
			held[e] = true
			x = append(x, e)
		}
	}
	return x
}

// assertLaggedTable requires p to hold a round-one table and at least one
// group with a lag under it.
func assertLaggedTable(t *testing.T, p partition) {
	t.Helper()
	if p.table == nil {
		t.Fatal("the lagged snapshot holds no round-one table")
	}
	for _, slot := range p.groups {
		if len(slot.lag) > 0 {
			return
		}
	}
	t.Fatal("no group of the lagged snapshot has a lag")
}

// newGoldenAlice builds the case's Alice, over a snapshot of her own.
func newGoldenAlice(t *testing.T, gc goldenCase, p *workload.Pair, plan Plan) *Alice {
	t.Helper()
	alice := newLaggedAlice(t, gc, p, plan, nil)
	if gc.tablePathRound != (alice.part.table != nil) {
		t.Fatalf("round-one table in use = %v, the case wants %v", alice.part.table != nil, gc.tablePathRound)
	}
	return alice
}

// newLaggedAlice builds the case's Alice over a snapshot cut from her set
// plus x and then written to remove x (see runGoldenLagged); with x empty,
// that is newGoldenAlice's.
func newLaggedAlice(t *testing.T, gc goldenCase, p *workload.Pair, plan Plan, x []uint64) *Alice {
	t.Helper()
	a := p.A
	var remove []uint64
	if gc.writes > 0 {
		// Start Alice's snapshot without the last writes elements of A plus
		// some elements A lacks, build the shape, then write the difference
		// back: the session runs on A, over table rows and lag lists Apply
		// left.
		remove = []uint64{1, 2, 3, 4, 5, 6, 7}
		a = append(append([]uint64(nil), p.A[:len(p.A)-gc.writes]...), remove...)
	}
	a = append(slices.Clone(a), x...)
	snap, err := NewSnapshot(a, Config{SigBits: plan.SigBits, Seed: plan.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if gc.writes > 0 || len(x) > 0 {
		snap.partitionFor(plan)
		if len(x) > 0 {
			snap.partitionFor(plan) // a second read keeps a table past |S|
		}
		snap = snap.Apply(p.A[len(p.A)-gc.writes:], append(remove, x...))
	}
	if len(x) > 0 {
		assertLaggedTable(t, snap.partitionFor(plan))
	}
	alice, err := NewAliceFromSnapshot(snap, plan)
	if err != nil {
		t.Fatal(err)
	}
	return alice
}

// driveGolden runs alice against bob to the end and records the transcript.
func driveGolden(t *testing.T, gc goldenCase, p *workload.Pair, alice *Alice, bob *Bob, adaptive bool) goldenTranscript {
	t.Helper()
	if adaptive {
		alice.EnableAdaptive()
		bob.EnableAdaptive()
	}
	var tr goldenTranscript
	split := false
	for !alice.Done() {
		if len(tr.Messages) >= DefaultMaxRounds {
			t.Fatalf("no convergence in %d rounds", DefaultMaxRounds)
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
		}
		tr.Messages = append(tr.Messages, sha(msg))
		tr.Replies = append(tr.Replies, sha(reply))
	}
	if len(tr.Messages) < gc.minRounds {
		t.Fatalf("session took %d rounds, the case wants at least %d", len(tr.Messages), gc.minRounds)
	}
	if gc.wantSplit && !split {
		t.Fatal("session never split a scope")
	}
	diff := sortedU64(alice.Difference())
	assertSameSet(t, diff, p.Diff)
	buf := make([]byte, 0, 8*len(diff))
	for _, x := range diff {
		buf = binary.LittleEndian.AppendUint64(buf, x)
	}
	tr.Difference = sha(buf)
	return tr
}

// TestRoundGolden pins the absolute bytes of the round exchange: every other
// equivalence suite compares two paths of the same build, so a change that
// moved both the same way would pass them all. The file is regenerated with
// `go test ./internal/core -run TestRoundGolden -update-golden`, which is
// only ever right in a change that means to alter the wire. Its second leg
// replays every session between warm endpoints — Bob's snapshot and
// Alice's have served the case once — and holds it to the same rows: a
// round-one table kept for an unwritten set, and the later-round rows the
// first session kept and the second reads, must not move a byte. Its third
// runs both endpoints over tables with lags under them (see
// runGoldenLagged): a row of a group's base with the lag folded on top must
// not move a byte either.
func TestRoundGolden(t *testing.T) {
	got := make(map[string]goldenTranscript)
	warm := make(map[string]goldenTranscript)
	lagged := make(map[string]goldenTranscript)
	for _, gc := range goldenCases {
		for _, parallelism := range []int{1, 4} {
			for _, adaptive := range []bool{false, true} {
				name := fmt.Sprintf("%s/par=%d/adaptive=%v", gc.name, parallelism, adaptive)
				got[name] = runGolden(t, gc, parallelism, adaptive, false)
				warm[name] = runGolden(t, gc, parallelism, adaptive, true)
				lagged[name] = runGoldenLagged(t, gc, parallelism, adaptive)
			}
		}
	}
	want := got
	if *updateGolden {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	} else {
		raw, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		want = make(map[string]goldenTranscript)
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		if len(want) != len(got) {
			t.Errorf("golden file has %d sessions, the test runs %d", len(want), len(got))
		}
	}
	for _, leg := range []struct {
		name string
		got  map[string]goldenTranscript
	}{{"cold responder", got}, {"warm responder", warm}, {"lagged tables", lagged}} {
		for name, g := range leg.got {
			w, ok := want[name]
			if !ok {
				t.Errorf("%s: not in %s", name, goldenPath)
				continue
			}
			if !reflect.DeepEqual(g, w) {
				t.Errorf("%s, %s: transcript differs from %s\n got %+v\nwant %+v", name, leg.name, goldenPath, g, w)
			}
		}
	}
}
