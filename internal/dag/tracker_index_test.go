package dag

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// trackerPair drives two trackers over one frozen graph with the same
// operations — one through the entry points that take a NodeID, one through
// the ones that take a node index, its cells in storage the test owns — and
// fails at the first difference in an error, a newly-ready list or any query.
type trackerPair struct {
	t     testing.TB
	g     *Graph
	byID  *Tracker
	byIdx Tracker
	ready []int32
}

func newTrackerPair(t testing.TB, g *Graph) *trackerPair {
	tp := &trackerPair{t: t, g: g, byID: NewTracker(g)}
	// One int32 more than the tracker wants, to see that it stays inside.
	store := make([]int32, TrackerCells(g)+1)
	store[len(store)-1] = -7
	tp.byIdx.Init(g, store[:TrackerCells(g)])
	t.Cleanup(func() {
		if store[len(store)-1] != -7 {
			t.Error("the tracker wrote past the cells it was given")
		}
	})
	tp.compare()
	return tp
}

func (tp *trackerPair) ids(idx []int32) []NodeID {
	var out []NodeID
	for _, i := range idx {
		out = append(out, tp.g.NodeAt(int(i)).ID)
	}
	return out
}

// running lists the running nodes' IDs, in graph insertion order.
func running(t *Tracker) []NodeID {
	var out []NodeID
	for i, n := range t.g.nodes {
		if t.state(int32(i)) == stateRunning {
			out = append(out, n.ID)
		}
	}
	return out
}

// fail returns a running node to ready by ID, as FailAt does by index.
func fail(t *Tracker, id NodeID) error {
	_, err := t.moveID("Fail", id, stateRunning, stateReady)
	return err
}

const (
	verbStart = iota
	verbComplete
	verbFail
)

// op applies one transition to node i on both trackers; it may well be
// invalid in the node's state, and then both must refuse it in the same words.
func (tp *trackerPair) op(verb int, i int32) {
	tp.t.Helper()
	id := tp.g.NodeAt(int(i)).ID
	var errID, errIdx error
	var newID []NodeID
	switch verb {
	case verbStart:
		errID, errIdx = tp.byID.Start(id), tp.byIdx.StartAt(i)
	case verbComplete:
		newID, errID = tp.byID.CompleteAppend(id, nil)
		tp.ready, errIdx = tp.byIdx.CompleteAt(i, tp.ready[:0])
		if got := tp.ids(tp.ready); !slices.Equal(got, newID) {
			tp.t.Fatalf("Complete(%q): by ID readies %v, by index %v", id, newID, got)
		}
	case verbFail:
		errID, errIdx = fail(tp.byID, id), tp.byIdx.FailAt(i)
	}
	if (errID == nil) != (errIdx == nil) || (errID != nil && errID.Error() != errIdx.Error()) {
		tp.t.Fatalf("verb %d on %q: by ID %v, by index %v", verb, id, errID, errIdx)
	}
	tp.compare()
}

func (tp *trackerPair) compare() {
	tp.t.Helper()
	a, b := tp.byID, &tp.byIdx
	if got, want := tp.ids(b.AppendReadyAt(nil)), a.AppendReady(nil); !slices.Equal(got, want) {
		tp.t.Fatalf("ready: by index %v, by ID %v", got, want)
	}
	if !slices.Equal(a.AppendReady(nil), b.AppendReady(nil)) || !slices.Equal(running(a), running(b)) {
		tp.t.Fatalf("ready/running: by ID %v/%v, by index %v/%v", a.AppendReady(nil), running(a), b.AppendReady(nil), running(b))
	}
	if a.Done() != b.Done() || a.CompletedCount() != b.CompletedCount() || len(a.RemainingNodes()) != len(b.RemainingNodes()) {
		tp.t.Fatalf("progress: by ID done=%v %d, by index done=%v %d", a.Done(), a.CompletedCount(), b.Done(), b.CompletedCount())
	}
	if wa, wb := a.RemainingCapabilityWork(), b.RemainingCapabilityWork(); fmt.Sprint(wa) != fmt.Sprint(wb) {
		tp.t.Fatalf("lookahead: by ID %v, by index %v", wa, wb)
	}
}

// Property: over seeded random graphs (oracle_test.go's generator), a walk of
// valid transitions — starts, completions, failures with retry — salted with
// invalid ones drives the ID entry points and the index entry points through
// identical states to completion.
func TestTrackerIndexAndIDEntryPointsAgree(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomPair(t, rng, 1+rng.Intn(40), 0)
		if !p.freeze() {
			t.Fatalf("seed %d: acyclic graph did not freeze", seed)
		}
		tp := newTrackerPair(t, p.g)
		n := int32(p.g.Len())
		for steps := 0; !tp.byID.Done(); steps++ {
			if steps > 50*int(n)+50 {
				t.Fatalf("seed %d: no progress", seed)
			}
			if rng.Intn(10) == 0 {
				tp.op(rng.Intn(3), rng.Int31n(n)) // whatever state it is in
				continue
			}
			ready, running := tp.byIdx.AppendReadyAt(nil), running(tp.byID)
			switch {
			case len(ready) > 0 && (len(running) == 0 || rng.Intn(2) == 0):
				tp.op(verbStart, ready[rng.Intn(len(ready))])
			case rng.Intn(6) == 0:
				tp.op(verbFail, p.g.index[running[rng.Intn(len(running))]]) // back to ready: retried later
			default:
				tp.op(verbComplete, p.g.index[running[rng.Intn(len(running))]])
			}
		}
		if !tp.byIdx.Done() || tp.byIdx.CompletedCount() != int(n) {
			t.Fatalf("seed %d: index tracker done=%v after %d of %d", seed, tp.byIdx.Done(), tp.byIdx.CompletedCount(), n)
		}
	}
}

// The capability slots Freeze assigns: one per distinct capability, numbered
// in sorted order, and every node knows its own.
func TestCapSlotsAreSortedCapabilities(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomPair(t, rng, rng.Intn(30), 0)
		p.freeze()
		g := p.g
		var want []string
		for c := range g.CapabilityWork() {
			want = append(want, c)
		}
		slices.Sort(want)
		var got []string
		for s := 0; s < g.CapSlots(); s++ {
			got = append(got, g.SlotCapability(s))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: slots %v, sorted capabilities %v", seed, got, want)
		}
		for i, n := range g.Nodes() {
			if g.NodeAt(i) != n || g.SlotCapability(g.CapSlot(i)) != n.Capability {
				t.Fatalf("seed %d: node %d (%s) sits in slot %d (%s)", seed, i, n.Capability, g.CapSlot(i), g.SlotCapability(g.CapSlot(i)))
			}
		}
	}
}

// A frozen graph renders its content once; from then on AppendContent copies.
func TestAppendContentIsMemoizedAfterFreeze(t *testing.T) {
	g := New()
	for i := 0; i < 40; i++ {
		g.MustAddNode(Node{ID: NodeID(fmt.Sprintf("n%d", i)), Capability: fmt.Sprintf("cap-%d", i%5), Work: float64(i) / 3})
	}
	before := string(g.AppendContent([]byte("k|")))
	if err := g.Freeze(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 4096)
	if got := string(g.AppendContent(append(buf, "k|"...))); got != before {
		t.Fatalf("content changed at Freeze:\n%s\n%s", before, got)
	}
	if got := testing.AllocsPerRun(100, func() { buf = g.AppendContent(buf[:0]) }); got != 0 {
		t.Fatalf("AppendContent on a frozen graph allocates %.0f, want 0", got)
	}
	if "k|"+string(buf) != before {
		t.Fatal("the memoized content differs from the rendered one")
	}
}

// BenchmarkTrackerWalk drives a 240-node video-shaped graph (48 scenes of
// extract → detect, transcribe → summarize → embed) from roots to done, once
// through the ID entry points and once through the index ones.
func BenchmarkTrackerWalk(b *testing.B) {
	g := New()
	for s := 0; s < 48; s++ {
		id := func(stage string) NodeID { return NodeID(fmt.Sprintf("%s_v0_s%d", stage, s)) }
		for _, stage := range []string{"ext", "stt", "det", "sum", "emb"} {
			g.MustAddNode(Node{ID: id(stage), Capability: stage, Work: 1})
		}
		g.MustAddEdge(id("ext"), id("det"))
		g.MustAddEdge(id("stt"), id("sum"))
		g.MustAddEdge(id("det"), id("sum"))
		g.MustAddEdge(id("sum"), id("emb"))
	}
	if err := g.Freeze(); err != nil {
		b.Fatal(err)
	}
	cells := make([]int32, TrackerCells(g))
	b.Run("by ID", func(b *testing.B) {
		var t Tracker
		var ready []NodeID
		for i := 0; i < b.N; i++ {
			t.Init(g, cells)
			ready = t.AppendReady(ready[:0])
			for len(ready) > 0 {
				id := ready[len(ready)-1]
				ready = ready[:len(ready)-1]
				if err := t.Start(id); err != nil {
					b.Fatal(err)
				}
				ready, _ = t.CompleteAppend(id, ready)
			}
		}
	})
	b.Run("by index", func(b *testing.B) {
		var t Tracker
		var ready []int32
		for i := 0; i < b.N; i++ {
			t.Init(g, cells)
			ready = t.AppendReadyAt(ready[:0])
			for len(ready) > 0 {
				n := ready[len(ready)-1]
				ready = ready[:len(ready)-1]
				if err := t.StartAt(n); err != nil {
					b.Fatal(err)
				}
				ready, _ = t.CompleteAt(n, ready)
			}
		}
	})
}
