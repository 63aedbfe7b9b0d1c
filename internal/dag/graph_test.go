package dag

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// pair drives the index-addressed Graph and the map-based oracle with the
// same operations and fails the test at the first difference: an error on one
// side only, a different error text, or a query that answers differently.
type pair struct {
	t   testing.TB
	g   *Graph
	o   *mapGraph
	ids []NodeID // every ID ever offered to AddNode, accepted or not
}

func newPair(t testing.TB) *pair { return &pair{t: t, g: New(), o: newMapGraph()} }

func (p *pair) sameErr(op string, got, want error) bool {
	p.t.Helper()
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		p.t.Fatalf("%s: graph says %v, oracle says %v", op, got, want)
	}
	return got == nil
}

func (p *pair) addNode(n Node) {
	p.t.Helper()
	p.ids = append(p.ids, n.ID)
	p.sameErr(fmt.Sprintf("AddNode(%q)", n.ID), p.g.AddNode(n), p.o.AddNode(n))
}

func (p *pair) addEdge(from, to NodeID) {
	p.t.Helper()
	p.sameErr(fmt.Sprintf("AddEdge(%q, %q)", from, to), p.g.AddEdge(from, to), p.o.AddEdge(from, to))
}

func (p *pair) freeze() bool {
	p.t.Helper()
	return p.sameErr("Freeze", p.g.Freeze(), p.o.Freeze())
}

// compare checks every query both representations answer, before or after
// Freeze. An empty list may be nil on one side and empty on the other.
func (p *pair) compare() {
	p.t.Helper()
	same := func(what string, got, want []NodeID) {
		p.t.Helper()
		if !slices.Equal(got, want) {
			p.t.Fatalf("%s: graph %v, oracle %v", what, got, want)
		}
	}
	if p.g.Len() != p.o.Len() || p.g.Frozen() != p.o.Frozen() {
		p.t.Fatalf("Len/Frozen: graph %d/%v, oracle %d/%v", p.g.Len(), p.g.Frozen(), p.o.Len(), p.o.Frozen())
	}
	gn, on := p.g.Nodes(), p.o.Nodes()
	if len(gn) != len(on) {
		p.t.Fatalf("Nodes: graph has %d, oracle %d", len(gn), len(on))
	}
	for i := range gn {
		if gn[i].ID != on[i].ID || gn[i].Capability != on[i].Capability || gn[i].Work != on[i].Work {
			p.t.Fatalf("Nodes[%d]: graph %+v, oracle %+v", i, *gn[i], *on[i])
		}
	}
	for _, id := range append(p.ids, "never-added") {
		gNode, gOK := p.g.Node(id)
		oNode, oOK := p.o.Node(id)
		if gOK != oOK || (gOK && gNode.ID != oNode.ID) {
			p.t.Fatalf("Node(%q): graph %v %v, oracle %v %v", id, gNode, gOK, oNode, oOK)
		}
		same(fmt.Sprintf("Successors(%q)", id), p.g.Successors(id), p.o.Successors(id))
		same(fmt.Sprintf("Predecessors(%q)", id), p.g.Predecessors(id), p.o.Predecessors(id))
	}
	same("Roots", p.g.Roots(), p.o.Roots())
	same("Leaves", p.g.Leaves(), p.o.Leaves())
	if got, want := p.g.String(), p.o.String(); got != want {
		p.t.Fatalf("String:\ngraph\n%s\noracle\n%s", got, want)
	}
	if !p.g.Frozen() {
		return
	}
	same("TopoOrder", p.g.TopoOrder(), p.o.TopoOrder())
	gPath, gWork := p.g.CriticalPath()
	oPath, oWork := p.o.CriticalPath()
	same("CriticalPath", gPath, oPath)
	// Works are small integers throughout, so every sum is exact whatever
	// order the oracle's maps are ranged in.
	if gWork != oWork || p.g.TotalWork() != p.o.TotalWork() {
		p.t.Fatalf("critical/total work: graph %v/%v, oracle %v/%v", gWork, p.g.TotalWork(), oWork, p.o.TotalWork())
	}
	gCap, oCap := p.g.CapabilityWork(), p.o.CapabilityWork()
	if len(gCap) != len(oCap) {
		p.t.Fatalf("CapabilityWork: graph %v, oracle %v", gCap, oCap)
	}
	for c, w := range oCap {
		if gCap[c] != w {
			p.t.Fatalf("CapabilityWork[%q]: graph %v, oracle %v", c, gCap[c], w)
		}
	}
}

// randomPair builds a random acyclic graph on both sides: IDs whose sorted
// order differs from insertion order, forward edges only, every third edge
// repeated, and (fanIn > 0) the last node fed by that many earlier ones.
// Isolated nodes fall out of the low edge probability.
func randomPair(t testing.TB, rng *rand.Rand, n, fanIn int) *pair {
	p := newPair(t)
	ids := make([]NodeID, n)
	for i, k := range rng.Perm(n) {
		ids[i] = NodeID(fmt.Sprintf("n%03d", k))
		p.addNode(Node{ID: ids[i], Capability: fmt.Sprintf("c%d", rng.Intn(4)), Work: float64(rng.Intn(9))})
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.12 || (j == n-1 && i < fanIn) {
				p.addEdge(ids[i], ids[j])
				if rng.Intn(3) == 0 {
					p.addEdge(ids[i], ids[j])
				}
			}
		}
	}
	return p
}

func TestGraphMatchesMapOracle(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fanIn := 0
		if seed%5 == 0 {
			fanIn = 32 + rng.Intn(16)
		}
		p := randomPair(t, rng, fanIn+rng.Intn(40), fanIn)
		p.compare() // every query also answers on a graph under construction
		if seed%7 == 3 && p.g.Len() >= 3 {
			// A back edge along an existing path: Freeze must name the same
			// node on both sides, leave both mutable and keep answering.
			order := p.g.Nodes()
			p.addEdge(order[0].ID, order[1].ID)
			p.addEdge(order[1].ID, order[2].ID)
			p.addEdge(order[2].ID, order[0].ID)
			if p.freeze() {
				t.Fatalf("seed %d: cycle froze", seed)
			}
			p.addNode(Node{ID: "after-failed-freeze"})
			p.compare()
			continue
		}
		if !p.freeze() {
			t.Fatalf("seed %d: acyclic graph did not freeze", seed)
		}
		p.compare()
		p.freeze() // freezing twice is harmless on both sides
		p.compare()
		// Every mutation of a frozen graph errors, with the same text.
		p.addNode(Node{ID: "late"})
		p.addEdge("late", "later")
	}
}

func TestGraphErrorTextsMatchOracle(t *testing.T) {
	p := newPair(t)
	p.freeze() // an empty graph freezes
	p.compare()
	p = newPair(t)
	p.addNode(Node{ID: ""})
	p.addNode(Node{ID: "a"})
	p.addNode(Node{ID: "a"})
	p.addNode(Node{ID: "b"})
	p.addEdge("a", "a")
	p.addEdge("a", "ghost")
	p.addEdge("ghost", "a")
	p.addEdge("ghost", "ghost") // self edge is reported before unknown node
	p.addEdge("a", "b")
	p.addEdge("b", "a")
	if p.freeze() {
		t.Fatal("two-node cycle froze")
	}
	p.compare()
}

// FuzzGraphOps replays a byte string as an operation sequence over eight
// candidate IDs (one of them empty) on the graph and the oracle. Each byte is
// one operation: the low two bits pick it, the rest its operands. Once a
// Freeze has succeeded every further byte is also a tracker transition —
// start, complete or fail, valid or not — on a node its high bits pick, played
// on a tracker driven by IDs and on one driven by node indices.
func FuzzGraphOps(f *testing.F) {
	node := func(id, work byte) byte { return 0 | id<<2 | work<<5 }
	edge := func(from, to byte) byte { return 1 | from<<2 | to<<5 }
	const compare, freeze = 2, 3
	f.Add([]byte{})
	f.Add([]byte{node(1, 3), node(2, 1), edge(1, 2), freeze})
	// A duplicate edge, a cycle that fails Freeze, then a late node.
	f.Add([]byte{node(1, 0), node(2, 0), edge(1, 2), edge(1, 2), edge(2, 1), freeze, node(3, 0), compare})
	// Empty and duplicate IDs, a self edge, dangling edges either way.
	f.Add([]byte{node(0, 0), node(1, 0), node(1, 0), edge(1, 1), edge(1, 5), edge(5, 1), compare, freeze})
	// Fan-in of six onto one node, queried before and after Freeze.
	f.Add([]byte{node(7, 1), node(6, 2), node(5, 3), node(4, 4), node(3, 5), node(2, 6), node(1, 7),
		edge(7, 1), edge(6, 1), edge(5, 1), edge(4, 1), edge(3, 1), edge(2, 1), compare, freeze, compare, node(1, 0)})
	// A chain run through both trackers: start, a failure and its retry, an
	// early completion refused, then completions in order.
	f.Add([]byte{node(1, 0), node(2, 0), edge(1, 2), freeze,
		0x00, 0x08, 0x00, 0x14, 0x04, 0x10, 0x14})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			t.Skip()
		}
		id := func(k byte) NodeID {
			if k %= 8; k == 0 {
				return ""
			}
			return NodeID('h' - k) // insertion order and ID order disagree
		}
		p := newPair(t)
		var tp *trackerPair
		for _, op := range ops {
			if tp != nil {
				tp.op(int(op>>2&3)%3, int32(op>>4)%int32(p.g.Len()))
			}
			switch a, b := op>>2&7, op>>5; op & 3 {
			case 0:
				p.addNode(Node{ID: id(a), Capability: string('x' + rune(b%3)), Work: float64(b)})
			case 1:
				p.addEdge(id(a), id(b))
			case 2:
				p.compare()
			case 3:
				if p.freeze() && tp == nil && p.g.Len() > 0 {
					tp = newTrackerPair(t, p.g)
				}
			}
		}
		p.compare()
	})
}

// Node pointers handed out while the graph is still growing must keep
// pointing at the node: the runtime's remaining-DAG view copies through them.
func TestNodePointersSurviveGrowth(t *testing.T) {
	g := New() // unsized: the slab has to start new chunks along the way
	var held []*Node
	for i := 0; i < 300; i++ {
		id := NodeID(fmt.Sprintf("n%d", i))
		g.MustAddNode(Node{ID: id, Work: float64(i)})
		byID, ok := g.Node(id)
		if !ok || byID != g.Nodes()[i] {
			t.Fatalf("Node(%q) and Nodes()[%d] disagree", id, i)
		}
		held = append(held, byID)
	}
	if err := g.Freeze(); err != nil {
		t.Fatal(err)
	}
	for i, n := range held {
		now, _ := g.Node(n.ID)
		if now != n || g.Nodes()[i] != n || n.Work != float64(i) {
			t.Fatalf("pointer to node %d taken during construction went stale", i)
		}
	}
}

// The work sums feed SLO degrade, reconfiguration scoring and fault
// re-planning, and float addition is not associative: summed over a map the
// three same-capability works below give 0.6 or 0.6000000000000001 depending
// on the iteration order of the day.
func TestWorkSumsAreBitStable(t *testing.T) {
	g := New()
	sum := 0.0 // left to right: insertion order
	for i, w := range []float64{0.1, 0.2, 0.3, 0.7, 1e-9} {
		g.MustAddNode(Node{ID: NodeID(fmt.Sprintf("n%d", i)), Capability: "c", Work: w})
		sum += w
	}
	if err := g.Freeze(); err != nil {
		t.Fatal(err)
	}
	tr := NewTracker(g)
	want := math.Float64bits(sum)
	for i := 0; i < 200; i++ {
		for name, got := range map[string]float64{
			"TotalWork":               g.TotalWork(),
			"CapabilityWork":          g.CapabilityWork()["c"],
			"RemainingCapabilityWork": tr.RemainingCapabilityWork()["c"],
		} {
			if math.Float64bits(got) != want {
				t.Fatalf("call %d: %s = %v (bits %x), want the insertion-order sum (bits %x)",
					i, name, got, math.Float64bits(got), want)
			}
		}
	}
}

// The allocation budget of building and freezing a graph, in a unit that does
// not depend on the host. Sized: the Graph, its node pointers, one slab
// chunk, the index map (up to four parts), the edge list and Freeze's two
// slabs. Unsized: the same plus one doubling per power of two for each of the
// four parts that grow.
func TestBuildFreezeAllocBudget(t *testing.T) {
	build := func(g *Graph, ids []NodeID) {
		for _, id := range ids {
			g.MustAddNode(Node{ID: id, Capability: "c", Work: 1})
		}
		for i := 1; i < len(ids); i++ {
			g.MustAddEdge(ids[i-1], ids[i])
			g.MustAddEdge(ids[0], ids[i])
		}
		if err := g.Freeze(); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{1, 4, 16, 64, 256} {
		ids := make([]NodeID, n)
		for i := range ids {
			ids[i] = NodeID(fmt.Sprintf("n%03d", i))
		}
		sized := testing.AllocsPerRun(50, func() { build(NewSized(n, 2*n), ids) })
		grown := testing.AllocsPerRun(50, func() { build(New(), ids) })
		t.Logf("%3d nodes: %.0f allocations sized, %.0f grown", n, sized, grown)
		if sized > 10 {
			t.Errorf("%d nodes, sized: %.0f allocations, budget 10", n, sized)
		}
		if limit := float64(10 + 4*bits.Len(uint(n))); grown > limit {
			t.Errorf("%d nodes, grown: %.0f allocations, budget %.0f", n, grown, limit)
		}
	}
}
