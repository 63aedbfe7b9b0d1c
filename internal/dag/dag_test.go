package dag

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// diamond builds a -> {b, c} -> d with the given work values.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g := New()
	g.MustAddNode(Node{ID: "a", Capability: "extract", Work: 1})
	g.MustAddNode(Node{ID: "b", Capability: "stt", Work: 10})
	g.MustAddNode(Node{ID: "c", Capability: "detect", Work: 3})
	g.MustAddNode(Node{ID: "d", Capability: "summarize", Work: 5})
	g.MustAddEdge("a", "b")
	g.MustAddEdge("a", "c")
	g.MustAddEdge("b", "d")
	g.MustAddEdge("c", "d")
	if err := g.Freeze(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAddNodeErrors(t *testing.T) {
	g := New()
	if err := g.AddNode(Node{ID: ""}); err == nil {
		t.Error("empty ID accepted")
	}
	g.MustAddNode(Node{ID: "x"})
	if err := g.AddNode(Node{ID: "x"}); err == nil {
		t.Error("duplicate ID accepted")
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New()
	g.MustAddNode(Node{ID: "a"})
	if err := g.AddEdge("a", "a"); err == nil {
		t.Error("self edge accepted")
	}
	if err := g.AddEdge("a", "ghost"); err == nil {
		t.Error("edge to unknown node accepted")
	}
	if err := g.AddEdge("ghost", "a"); err == nil {
		t.Error("edge from unknown node accepted")
	}
}

func TestFreezeDetectsCycle(t *testing.T) {
	g := New()
	g.MustAddNode(Node{ID: "a"})
	g.MustAddNode(Node{ID: "b"})
	g.MustAddEdge("a", "b")
	g.MustAddEdge("b", "a")
	if err := g.Freeze(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("Freeze = %v, want cycle error", err)
	}
}

func TestMutationAfterFreezeFails(t *testing.T) {
	g := diamond(t)
	if err := g.AddNode(Node{ID: "z"}); err == nil {
		t.Error("AddNode after freeze accepted")
	}
	if err := g.AddEdge("a", "d"); err == nil {
		t.Error("AddEdge after freeze accepted")
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	g := diamond(t)
	order := g.TopoOrder()
	pos := map[NodeID]int{}
	for i, id := range order {
		pos[id] = i
	}
	for _, n := range g.Nodes() {
		for _, s := range g.Successors(n.ID) {
			if pos[n.ID] >= pos[s] {
				t.Fatalf("topo order %v violates edge %s->%s", order, n.ID, s)
			}
		}
	}
}

func TestRootsAndLeaves(t *testing.T) {
	g := diamond(t)
	if r := g.Roots(); len(r) != 1 || r[0] != "a" {
		t.Fatalf("roots = %v, want [a]", r)
	}
	if l := g.Leaves(); len(l) != 1 || l[0] != "d" {
		t.Fatalf("leaves = %v, want [d]", l)
	}
}

func TestCriticalPath(t *testing.T) {
	g := diamond(t)
	path, work := g.CriticalPath()
	// a(1) -> b(10) -> d(5) = 16 beats a -> c(3) -> d = 9.
	if work != 16 {
		t.Fatalf("critical work = %v, want 16", work)
	}
	want := []NodeID{"a", "b", "d"}
	if len(path) != 3 {
		t.Fatalf("critical path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("critical path = %v, want %v", path, want)
		}
	}
}

func TestTotalAndCapabilityWork(t *testing.T) {
	g := diamond(t)
	if got := g.TotalWork(); got != 19 {
		t.Fatalf("total work = %v, want 19", got)
	}
	cw := g.CapabilityWork()
	if cw["stt"] != 10 || cw["summarize"] != 5 {
		t.Fatalf("capability work = %v", cw)
	}
}

func TestStringContainsEdges(t *testing.T) {
	g := diamond(t)
	s := g.String()
	if !strings.Contains(s, "a[extract] -> b,c") {
		t.Fatalf("String() = %q", s)
	}
}

func TestTrackerFrontierFlow(t *testing.T) {
	g := diamond(t)
	tr := NewTracker(g)

	if r := tr.AppendReady(nil); len(r) != 1 || r[0] != "a" {
		t.Fatalf("initial ready = %v, want [a]", r)
	}
	if err := tr.Start("a"); err != nil {
		t.Fatal(err)
	}
	newly, err := tr.CompleteAppend("a", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(newly) != 2 {
		t.Fatalf("newly ready after a = %v, want [b c]", newly)
	}
	// d is not ready until BOTH b and c complete.
	tr.Start("b")
	newly, _ = tr.CompleteAppend("b", nil)
	if len(newly) != 0 {
		t.Fatalf("d became ready with c outstanding: %v", newly)
	}
	tr.Start("c")
	newly, _ = tr.CompleteAppend("c", nil)
	if len(newly) != 1 || newly[0] != "d" {
		t.Fatalf("newly after c = %v, want [d]", newly)
	}
	tr.Start("d")
	tr.CompleteAppend("d", nil)
	if !tr.Done() {
		t.Fatal("tracker not done after all nodes complete")
	}
}

func TestTrackerStateErrors(t *testing.T) {
	g := diamond(t)
	tr := NewTracker(g)
	if err := tr.Start("d"); err == nil {
		t.Error("started pending node")
	}
	if _, err := tr.CompleteAppend("a", nil); err == nil {
		t.Error("completed non-running node")
	}
	tr.Start("a")
	if err := tr.Start("a"); err == nil {
		t.Error("double start accepted")
	}
}

func TestTrackerFailRetry(t *testing.T) {
	g := diamond(t)
	tr := NewTracker(g)
	tr.Start("a")
	if err := fail(tr, "a"); err != nil {
		t.Fatal(err)
	}
	if r := tr.AppendReady(nil); len(r) != 1 || r[0] != "a" {
		t.Fatalf("ready after fail = %v, want [a]", r)
	}
	// Retry succeeds.
	tr.Start("a")
	if _, err := tr.CompleteAppend("a", nil); err != nil {
		t.Fatal(err)
	}
	if err := fail(tr, "a"); err == nil {
		t.Error("failed a done node")
	}
}

func TestRemainingCapabilityWork(t *testing.T) {
	g := diamond(t)
	tr := NewTracker(g)
	tr.Start("a")
	tr.CompleteAppend("a", nil)
	rem := tr.RemainingCapabilityWork()
	if _, has := rem["extract"]; has {
		t.Error("completed capability still in remaining work")
	}
	if rem["stt"] != 10 {
		t.Errorf("remaining stt work = %v, want 10", rem["stt"])
	}
}

// Property: random DAGs (edges only forward in insertion order, so acyclic)
// always freeze, and driving the tracker to completion visits every node
// exactly once in an order consistent with the edges.
func TestPropertyTrackerCompletesRandomDAGs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := New()
		ids := make([]NodeID, n)
		for i := 0; i < n; i++ {
			ids[i] = NodeID(rune('A'+i%26)) + NodeID(rune('0'+i/26))
			g.MustAddNode(Node{ID: ids[i], Capability: "c", Work: 1})
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.2 {
					g.MustAddEdge(ids[i], ids[j])
				}
			}
		}
		if err := g.Freeze(); err != nil {
			return false
		}
		tr := NewTracker(g)
		completed := map[NodeID]bool{}
		for !tr.Done() {
			ready := tr.AppendReady(nil)
			if len(ready) == 0 {
				return false // deadlock
			}
			id := ready[rng.Intn(len(ready))]
			if completed[id] {
				return false
			}
			if err := tr.Start(id); err != nil {
				return false
			}
			// Every predecessor must already be complete.
			for _, p := range g.Predecessors(id) {
				if !completed[p] {
					return false
				}
			}
			if _, err := tr.CompleteAppend(id, nil); err != nil {
				return false
			}
			completed[id] = true
		}
		return len(completed) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNewTrackerUnfrozenPanics(t *testing.T) {
	g := New()
	g.MustAddNode(Node{ID: "a"})
	defer func() {
		if recover() == nil {
			t.Fatal("NewTracker on unfrozen graph did not panic")
		}
	}()
	NewTracker(g)
}

func TestTrackerRemainingNodes(t *testing.T) {
	g := New()
	g.MustAddNode(Node{ID: "a", Capability: "x", Work: 1})
	g.MustAddNode(Node{ID: "b", Capability: "y", Work: 2})
	g.MustAddNode(Node{ID: "c", Capability: "y", Work: 3})
	g.MustAddEdge("a", "b")
	g.MustAddEdge("b", "c")
	if err := g.Freeze(); err != nil {
		t.Fatal(err)
	}
	tr := NewTracker(g)
	if got := len(tr.RemainingNodes()); got != 3 {
		t.Fatalf("remaining = %d at start", got)
	}
	if err := tr.Start("a"); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.RemainingNodes()); got != 3 {
		t.Fatalf("remaining = %d with a running (running is not done)", got)
	}
	if _, err := tr.CompleteAppend("a", nil); err != nil {
		t.Fatal(err)
	}
	rem := tr.RemainingNodes()
	if len(rem) != 2 || rem[0].ID != "b" || rem[1].ID != "c" {
		t.Fatalf("remaining after a = %v", rem)
	}
}
