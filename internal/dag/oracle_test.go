package dag

import (
	"fmt"
	"sort"
	"strings"
)

// mapGraph is the map-of-maps representation Graph had until PR 16, kept
// verbatim as the oracle the index-addressed graph is checked against. One
// edit: a cycle error names the first offending node in insertion order (the
// original ranged over a map and named an arbitrary one).
type mapGraph struct {
	nodes map[NodeID]*Node
	// succ and pred are adjacency sets.
	succ map[NodeID]map[NodeID]bool
	pred map[NodeID]map[NodeID]bool
	// order preserves insertion order for deterministic iteration.
	order  []NodeID
	frozen bool

	// Freeze-time memos. A frozen graph is immutable, so the sorted adjacency
	// lists, the topological order, the node list and the dense node index are
	// computed once at Freeze and shared by every later query — per-job
	// scheduling stops re-sorting and re-allocating them. The returned slices
	// are read-only views; callers must not modify them.
	topo       []NodeID
	nodesList  []*Node
	succSorted map[NodeID][]NodeID
	predSorted map[NodeID][]NodeID
	index      map[NodeID]int
}

// newMapGraph returns an empty oracle graph.
func newMapGraph() *mapGraph {
	return &mapGraph{
		nodes: make(map[NodeID]*Node),
		succ:  make(map[NodeID]map[NodeID]bool),
		pred:  make(map[NodeID]map[NodeID]bool),
	}
}

// AddNode inserts a node. Duplicate IDs and empty IDs are errors.
func (g *mapGraph) AddNode(n Node) error {
	if g.frozen {
		return fmt.Errorf("dag: AddNode on frozen graph")
	}
	if n.ID == "" {
		return fmt.Errorf("dag: node with empty ID")
	}
	if _, dup := g.nodes[n.ID]; dup {
		return fmt.Errorf("dag: duplicate node %q", n.ID)
	}
	cp := n
	g.nodes[n.ID] = &cp
	// Adjacency sets are created lazily by AddEdge: most graphs have many
	// root/leaf/pass-through nodes whose empty maps would otherwise be two
	// dead allocations per node. A nil set reads as empty everywhere
	// (len, range, lookups).
	g.order = append(g.order, n.ID)
	return nil
}

// MustAddNode is AddNode for construction code where failure is a bug.
func (g *mapGraph) MustAddNode(n Node) {
	if err := g.AddNode(n); err != nil {
		panic(err)
	}
}

// AddEdge inserts a dataflow edge from → to. Unknown endpoints and self
// edges are errors; cycle detection happens at Freeze.
func (g *mapGraph) AddEdge(from, to NodeID) error {
	if g.frozen {
		return fmt.Errorf("dag: AddEdge on frozen graph")
	}
	if from == to {
		return fmt.Errorf("dag: self edge on %q", from)
	}
	if _, ok := g.nodes[from]; !ok {
		return fmt.Errorf("dag: edge from unknown node %q", from)
	}
	if _, ok := g.nodes[to]; !ok {
		return fmt.Errorf("dag: edge to unknown node %q", to)
	}
	if g.succ[from] == nil {
		g.succ[from] = map[NodeID]bool{}
	}
	if g.pred[to] == nil {
		g.pred[to] = map[NodeID]bool{}
	}
	g.succ[from][to] = true
	g.pred[to][from] = true
	return nil
}

// MustAddEdge is AddEdge for construction code where failure is a bug.
func (g *mapGraph) MustAddEdge(from, to NodeID) {
	if err := g.AddEdge(from, to); err != nil {
		panic(err)
	}
}

// Freeze validates acyclicity and locks the graph. It must be called before
// scheduling queries; mutating after Freeze errors.
func (g *mapGraph) Freeze() error {
	// The sorted adjacency memos are built first (topoOrder consumes them
	// through Successors for deterministic tie-breaking) and all lists are
	// carved out of ONE slab sized to the exact edge count — two slice
	// headers per node collapse into two map inserts plus a shared backing
	// array. Capacity-capped views keep a later append from bleeding into
	// the neighbouring list.
	edges := 0
	for _, id := range g.order {
		edges += len(g.succ[id])
	}
	slab := make([]NodeID, 0, 2*edges)
	g.succSorted = make(map[NodeID][]NodeID, len(g.order))
	g.predSorted = make(map[NodeID][]NodeID, len(g.order))
	for _, id := range g.order {
		slab, g.succSorted[id] = carveSorted(slab, g.succ[id])
		slab, g.predSorted[id] = carveSorted(slab, g.pred[id])
	}
	topo, err := g.topoOrder()
	if err != nil {
		// The graph stays mutable after a failed Freeze; stale memos would
		// shadow later edge inserts.
		g.succSorted, g.predSorted = nil, nil
		return err
	}
	g.frozen = true
	g.topo = topo
	g.nodesList = make([]*Node, len(g.order))
	g.index = make(map[NodeID]int, len(g.order))
	for i, id := range g.order {
		g.nodesList[i] = g.nodes[id]
		g.index[id] = i
	}
	return nil
}

// carveSorted appends m's keys to slab, sorts that region in place, and
// returns the grown slab plus a capacity-capped view of the region.
func carveSorted(slab []NodeID, m map[NodeID]bool) ([]NodeID, []NodeID) {
	start := len(slab)
	for id := range m {
		slab = append(slab, id)
	}
	list := slab[start:len(slab):len(slab)]
	sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
	return slab, list
}

// Frozen reports whether Freeze succeeded.
func (g *mapGraph) Frozen() bool { return g.frozen }

// Len returns the node count.
func (g *mapGraph) Len() int { return len(g.nodes) }

// Node returns a node by ID.
func (g *mapGraph) Node(id NodeID) (*Node, bool) {
	n, ok := g.nodes[id]
	return n, ok
}

// Nodes returns all nodes in insertion order. After Freeze the returned
// slice is a shared read-only view; callers must not modify it.
func (g *mapGraph) Nodes() []*Node {
	if g.nodesList != nil {
		return g.nodesList
	}
	out := make([]*Node, 0, len(g.order))
	for _, id := range g.order {
		out = append(out, g.nodes[id])
	}
	return out
}

// Successors returns the IDs downstream of id, sorted. After Freeze the
// returned slice is a shared read-only view; callers must not modify it.
func (g *mapGraph) Successors(id NodeID) []NodeID {
	if g.succSorted != nil {
		return g.succSorted[id]
	}
	return sortedKeys(g.succ[id])
}

// Predecessors returns the IDs upstream of id, sorted. After Freeze the
// returned slice is a shared read-only view; callers must not modify it.
func (g *mapGraph) Predecessors(id NodeID) []NodeID {
	if g.predSorted != nil {
		return g.predSorted[id]
	}
	return sortedKeys(g.pred[id])
}

func sortedKeys(m map[NodeID]bool) []NodeID {
	out := make([]NodeID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Roots returns nodes with no predecessors, in insertion order.
func (g *mapGraph) Roots() []NodeID {
	var out []NodeID
	for _, id := range g.order {
		if len(g.pred[id]) == 0 {
			out = append(out, id)
		}
	}
	return out
}

// Leaves returns nodes with no successors, in insertion order.
func (g *mapGraph) Leaves() []NodeID {
	var out []NodeID
	for _, id := range g.order {
		if len(g.succ[id]) == 0 {
			out = append(out, id)
		}
	}
	return out
}

// topoOrder returns a topological order or an error naming a cycle member.
func (g *mapGraph) topoOrder() ([]NodeID, error) {
	indeg := make(map[NodeID]int, len(g.nodes))
	for _, id := range g.order {
		indeg[id] = len(g.pred[id])
	}
	// out doubles as the BFS queue (head is the read cursor): pre-sized to
	// the node count, the whole pass allocates only it and the indeg map.
	out := make([]NodeID, 0, len(g.order))
	for _, id := range g.order {
		if indeg[id] == 0 {
			out = append(out, id)
		}
	}
	for head := 0; head < len(out); head++ {
		for _, s := range g.Successors(out[head]) {
			indeg[s]--
			if indeg[s] == 0 {
				out = append(out, s)
			}
		}
	}
	if len(out) != len(g.nodes) {
		for _, id := range g.order {
			if indeg[id] > 0 {
				return nil, fmt.Errorf("dag: cycle through node %q", id)
			}
		}
	}
	return out, nil
}

// TopoOrder returns a deterministic topological order (insertion order among
// ready nodes). Panics on an unfrozen graph: callers must validate first.
// The returned slice is the shared order computed at Freeze; callers must
// not modify it.
func (g *mapGraph) TopoOrder() []NodeID {
	g.mustBeFrozen("TopoOrder")
	return g.topo
}

func (g *mapGraph) mustBeFrozen(op string) {
	if !g.frozen {
		panic("dag: " + op + " on unfrozen graph")
	}
}

// CriticalPath returns the path with the greatest total Work and that total.
// It lower-bounds workflow latency given unlimited parallelism — the
// quantity Murakkab's execution-path expansion tries to approach.
func (g *mapGraph) CriticalPath() ([]NodeID, float64) {
	g.mustBeFrozen("CriticalPath")
	dist := map[NodeID]float64{}
	via := map[NodeID]NodeID{}
	var best NodeID
	bestDist := -1.0
	for _, id := range g.TopoOrder() {
		d := g.nodes[id].Work
		for _, p := range g.Predecessors(id) {
			if dist[p]+g.nodes[id].Work > d {
				d = dist[p] + g.nodes[id].Work
				via[id] = p
			}
		}
		dist[id] = d
		if d > bestDist {
			best, bestDist = id, d
		}
	}
	if bestDist < 0 {
		return nil, 0
	}
	var path []NodeID
	for at := best; ; {
		path = append([]NodeID{at}, path...)
		p, ok := via[at]
		if !ok {
			break
		}
		at = p
	}
	return path, bestDist
}

// TotalWork sums Work across all nodes.
func (g *mapGraph) TotalWork() float64 {
	total := 0.0
	for _, n := range g.nodes {
		total += n.Work
	}
	return total
}

// CapabilityWork sums Work per capability — the demand signal the cluster
// manager uses for proactive scaling.
func (g *mapGraph) CapabilityWork() map[string]float64 {
	out := map[string]float64{}
	for _, n := range g.nodes {
		out[n.Capability] += n.Work
	}
	return out
}

// String renders a compact description for logs and golden tests.
func (g *mapGraph) String() string {
	var b strings.Builder
	for _, id := range g.order {
		n := g.nodes[id]
		fmt.Fprintf(&b, "%s[%s]", id, n.Capability)
		if succ := g.Successors(id); len(succ) > 0 {
			parts := make([]string, len(succ))
			for i, s := range succ {
				parts[i] = string(s)
			}
			fmt.Fprintf(&b, " -> %s", strings.Join(parts, ","))
		}
		b.WriteString("\n")
	}
	return b.String()
}
