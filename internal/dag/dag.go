// Package dag implements the directed-acyclic-graph workflow representation
// the paper's planner produces (§3.1): nodes are agent tasks, edges are
// dataflow. The runtime consumes it through frontier iteration (which tasks
// are ready), and the cluster manager consumes it through lookahead queries
// (which capabilities will be needed soon — the §3.2 "Workflow-Aware Cluster
// Management" contract).
//
// A graph is index-addressed: nodes sit in insertion order in slab chunks
// that never move, one map turns an ID into its index, edges are appended as
// index pairs, and Freeze derives sorted compressed-sparse-row adjacency and
// the topological order from them in two exactly-sized allocations. Queries
// and the Tracker then walk indices instead of hashing IDs.
package dag

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/contentkey"
)

// NodeID identifies a node within one graph.
type NodeID string

// Meta is a handful of arguments as alternating key, value strings: a view
// the planner cuts from one slab per graph (keys in sorted order), where a Go
// map per node was a third of decomposition's allocations.
type Meta []string

// Get returns the value stored under key.
func (m Meta) Get(key string) (string, bool) {
	for i := 0; i+1 < len(m); i += 2 {
		if m[i] == key {
			return m[i+1], true
		}
	}
	return "", false
}

// Node is one task in the workflow graph.
type Node struct {
	ID NodeID
	// Capability names the abstract agent interface the task needs
	// (e.g. "speech-to-text"), not a concrete model — fungibility (§3).
	Capability string
	// Label is a human-readable description (shows up in traces).
	Label string
	// Work quantifies the task for profiles (seconds of audio, frame count,
	// token counts...). Interpretation is capability-specific.
	Work float64
	// Metadata carries planner-extracted arguments (e.g. scene index).
	Metadata Meta
}

// Graph is a mutable DAG under construction; Freeze validates it. The
// zero value is not usable; call New.
type Graph struct {
	// nodes lists every node in insertion order. The pointers lead into slab
	// chunks; a full chunk is left alone and a new one started, so a *Node
	// handed out earlier stays valid (the runtime's remaining-DAG view copies
	// through them).
	nodes []*Node
	slab  []Node
	index map[NodeID]int32
	// edges is what AddEdge was given, duplicates included; they collapse
	// when the adjacency is built.
	edges  []edge
	frozen bool
	// adjacency is set by Freeze. A frozen graph is immutable, so the slices
	// its queries return are shared read-only views.
	adjacency
	// content memoizes AppendContent's bytes for a frozen graph. Rendered on
	// first demand, under the Once: plan searchers read a frozen graph off the
	// loop goroutine that asks for its content.
	contentOnce sync.Once
	content     []byte
}

type edge struct{ from, to int32 }

// New returns an empty graph.
func New() *Graph { return NewSized(0, 0) }

// NewSized returns an empty graph with room for the given node and edge
// counts, for builders that know them up front: construction then allocates
// once per part instead of growing.
func NewSized(nodes, edges int) *Graph {
	return &Graph{
		nodes: make([]*Node, 0, nodes),
		slab:  make([]Node, 0, nodes),
		index: make(map[NodeID]int32, nodes),
		edges: make([]edge, 0, edges),
	}
}

// AddNode inserts a node. Duplicate IDs and empty IDs are errors.
func (g *Graph) AddNode(n Node) error {
	if g.frozen {
		return fmt.Errorf("dag: AddNode on frozen graph")
	}
	if n.ID == "" {
		return fmt.Errorf("dag: node with empty ID")
	}
	if _, dup := g.index[n.ID]; dup {
		return fmt.Errorf("dag: duplicate node %q", n.ID)
	}
	if len(g.slab) == cap(g.slab) {
		g.slab = make([]Node, 0, max(2*cap(g.slab), 8))
	}
	g.slab = append(g.slab, n)
	g.index[n.ID] = int32(len(g.nodes))
	g.nodes = append(g.nodes, &g.slab[len(g.slab)-1])
	return nil
}

// MustAddNode is AddNode for construction code where failure is a bug.
func (g *Graph) MustAddNode(n Node) {
	if err := g.AddNode(n); err != nil {
		panic(err)
	}
}

// AddEdge inserts a dataflow edge from → to. Unknown endpoints and self
// edges are errors; cycle detection happens at Freeze.
func (g *Graph) AddEdge(from, to NodeID) error {
	if g.frozen {
		return fmt.Errorf("dag: AddEdge on frozen graph")
	}
	if from == to {
		return fmt.Errorf("dag: self edge on %q", from)
	}
	f, ok := g.index[from]
	if !ok {
		return fmt.Errorf("dag: edge from unknown node %q", from)
	}
	t, ok := g.index[to]
	if !ok {
		return fmt.Errorf("dag: edge to unknown node %q", to)
	}
	g.edges = append(g.edges, edge{f, t})
	return nil
}

// MustAddEdge is AddEdge for construction code where failure is a bug.
func (g *Graph) MustAddEdge(from, to NodeID) {
	if err := g.AddEdge(from, to); err != nil {
		panic(err)
	}
}

// csr is one direction of the edge set in compressed-sparse-row form: node
// i's neighbours are idx[off[i]:off[i+1]], sorted by neighbour ID, and ids
// holds the same rows as IDs.
type csr struct {
	off []int32
	idx []int32
	ids []NodeID
}

func (c *csr) row(i int) []int32 { return c.idx[c.off[i]:c.off[i+1]] }

// neighbours returns id's row as IDs, capped so that a caller's append
// cannot reach the next row.
func (c *csr) neighbours(index map[NodeID]int32, id NodeID) []NodeID {
	i, ok := index[id]
	if !ok {
		return nil
	}
	return c.ids[c.off[i]:c.off[i+1]:c.off[i+1]]
}

// adjacency is everything derived from the node and edge lists. sortTopo
// fills topoIdx (the topological order as node indices) and topo (as IDs),
// counting down indeg; assignCapSlots fills capSlot (each node's capability
// slot) and capRep (one node of each slot's capability, the slots numbered in
// sorted capability order).
type adjacency struct {
	succ, pred      csr
	topoIdx, indeg  []int32
	capSlot, capRep []int32
	topo            []NodeID
}

// buildAdjacency derives both CSR directions from the edge list with two
// allocations: one int32 slab (offsets, rows, topo scratch, capability slots)
// and one NodeID slab (row views, topological order).
func (g *Graph) buildAdjacency() adjacency {
	n, raw := len(g.nodes), len(g.edges)
	ints := make([]int32, 6*n+2+2*raw)
	var a adjacency
	a.succ.off, ints = ints[:n+1], ints[n+1:]
	a.pred.off, ints = ints[:n+1], ints[n+1:]
	a.topoIdx, ints = ints[:0:n], ints[n:]
	a.indeg, ints = ints[:n], ints[n:]
	a.capSlot, ints = ints[:n], ints[n:]
	a.capRep, ints = ints[:0:n], ints[n:]
	cur := a.indeg // row write cursors until sortTopo needs the in-degrees
	byID := func(x, y int32) int { return cmp.Compare(g.nodes[x].ID, g.nodes[y].ID) }

	// Successor rows: counting sort of the raw edges by source, then each row
	// sorted by target ID, duplicates dropped and the gaps closed leftwards.
	rows := ints[:raw]
	for _, e := range g.edges {
		a.succ.off[e.from+1]++
	}
	startRows(a.succ.off, cur)
	for _, e := range g.edges {
		rows[cur[e.from]] = e.to
		cur[e.from]++
	}
	w, start := int32(0), int32(0)
	for i := range n {
		end := a.succ.off[i+1]
		row := rows[start:end]
		slices.SortFunc(row, byID)
		a.succ.off[i] = w
		w += int32(copy(rows[w:], slices.Compact(row)))
		start = end
	}
	a.succ.off[n] = w
	a.succ.idx = rows[:w]

	// Predecessor rows: the transpose of the deduplicated successor rows.
	a.pred.idx = ints[raw : raw+int(w)]
	for _, to := range a.succ.idx {
		a.pred.off[to+1]++
	}
	startRows(a.pred.off, cur)
	for v := range n {
		for _, to := range a.succ.row(v) {
			a.pred.idx[cur[to]] = int32(v)
			cur[to]++
		}
	}
	for v := range n {
		slices.SortFunc(a.pred.row(v), byID)
	}

	ids := make([]NodeID, n+2*int(w))
	a.succ.ids, a.pred.ids, a.topo = ids[:w], ids[w:2*w], ids[2*w:2*w:len(ids)]
	for k, v := range a.succ.idx {
		a.succ.ids[k] = g.nodes[v].ID
	}
	for k, v := range a.pred.idx {
		a.pred.ids[k] = g.nodes[v].ID
	}
	return a
}

// startRows turns the per-row counts in off[1:] into row offsets and copies
// each row's start into cur.
func startRows(off, cur []int32) {
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	copy(cur, off)
}

// sortTopo fills topoIdx and topo (Kahn's algorithm: insertion order among
// ready nodes, successors in ID order) or returns an error naming the first
// node, in insertion order, that sits on or behind a cycle.
func (a *adjacency) sortTopo(nodes []*Node) error {
	for i := range nodes {
		a.indeg[i] = a.pred.off[i+1] - a.pred.off[i]
		if a.indeg[i] == 0 {
			a.topoIdx = append(a.topoIdx, int32(i))
		}
	}
	// topoIdx doubles as the BFS queue (head is the read cursor).
	for head := 0; head < len(a.topoIdx); head++ {
		for _, s := range a.succ.row(int(a.topoIdx[head])) {
			if a.indeg[s]--; a.indeg[s] == 0 {
				a.topoIdx = append(a.topoIdx, s)
			}
		}
	}
	if len(a.topoIdx) != len(nodes) {
		i := slices.IndexFunc(a.indeg, func(d int32) bool { return d > 0 })
		return fmt.Errorf("dag: cycle through node %q", nodes[i].ID)
	}
	for _, i := range a.topoIdx {
		a.topo = append(a.topo, nodes[i].ID)
	}
	return nil
}

// assignCapSlots numbers the graph's distinct capabilities in sorted order
// and records each node's number: what lets an executor keep per-capability
// state in a slice and reach it from a node index without hashing a name. A
// graph has a handful of capabilities, so finding a node's among those seen
// so far is a short scan; indeg is free as scratch until sortTopo runs.
func (a *adjacency) assignCapSlots(nodes []*Node) {
	for i, n := range nodes {
		s := slices.IndexFunc(a.capRep, func(r int32) bool { return nodes[r].Capability == n.Capability })
		if s < 0 {
			s = len(a.capRep)
			a.capRep = append(a.capRep, int32(i))
		}
		a.capSlot[i] = int32(s) // discovery order, renumbered below
	}
	slices.SortFunc(a.capRep, func(x, y int32) int { return cmp.Compare(nodes[x].Capability, nodes[y].Capability) })
	rank := a.indeg
	for slot, r := range a.capRep {
		rank[a.capSlot[r]] = int32(slot)
	}
	for i, s := range a.capSlot {
		a.capSlot[i] = rank[s]
	}
}

// Freeze validates acyclicity and locks the graph. It must be called before
// scheduling queries; mutating after Freeze errors, and a graph whose Freeze
// failed stays mutable.
func (g *Graph) Freeze() error {
	a := g.buildAdjacency()
	a.assignCapSlots(g.nodes)
	if err := a.sortTopo(g.nodes); err != nil {
		return err
	}
	g.adjacency, g.frozen = a, true
	return nil
}

// adj returns the frozen adjacency, or builds a throwaway one for a query on
// a graph still under construction.
func (g *Graph) adj() *adjacency {
	if g.frozen {
		return &g.adjacency
	}
	a := g.buildAdjacency()
	return &a
}

// Frozen reports whether Freeze succeeded.
func (g *Graph) Frozen() bool { return g.frozen }

// Len returns the node count.
func (g *Graph) Len() int { return len(g.nodes) }

// Node returns a node by ID.
func (g *Graph) Node(id NodeID) (*Node, bool) {
	i, ok := g.index[id]
	if !ok {
		return nil, false
	}
	return g.nodes[i], true
}

// NodeAt returns the node at insertion index i.
func (g *Graph) NodeAt(i int) *Node { return g.nodes[i] }

// CapSlots returns how many distinct capabilities a frozen graph's nodes
// name. Slots number them in sorted order.
func (g *Graph) CapSlots() int {
	g.mustBeFrozen("CapSlots")
	return len(g.capRep)
}

// CapSlot returns the capability slot of the node at index i.
func (g *Graph) CapSlot(i int) int { return int(g.capSlot[i]) }

// SlotCapability returns the capability that slot s numbers.
func (g *Graph) SlotCapability(s int) string { return g.nodes[g.capRep[s]].Capability }

// AppendContent appends the graph's (capability, work) content — every node's,
// in insertion order, in contentkey encoding — to key. A frozen graph renders
// it once and appends the remembered bytes from then on.
func (g *Graph) AppendContent(key []byte) []byte {
	if !g.frozen {
		return g.appendContent(key)
	}
	g.contentOnce.Do(func() {
		// Through the caller's scratch first, so what is kept is cut to size.
		n := len(key)
		key = g.appendContent(key)
		g.content, key = slices.Clone(key[n:]), key[:n]
	})
	return append(key, g.content...)
}

func (g *Graph) appendContent(key []byte) []byte {
	for _, n := range g.nodes {
		key = contentkey.AppendString(key, n.Capability)
		key = contentkey.AppendFloat(key, n.Work)
	}
	return key
}

// Nodes returns all nodes in insertion order. After Freeze the returned
// slice is a shared read-only view; callers must not modify it.
func (g *Graph) Nodes() []*Node {
	if g.frozen {
		return g.nodes[:len(g.nodes):len(g.nodes)]
	}
	return slices.Clone(g.nodes)
}

// Successors returns the IDs downstream of id, sorted. After Freeze the
// returned slice is a shared read-only view; callers must not modify it.
func (g *Graph) Successors(id NodeID) []NodeID { return g.adj().succ.neighbours(g.index, id) }

// Predecessors returns the IDs upstream of id, sorted. After Freeze the
// returned slice is a shared read-only view; callers must not modify it.
func (g *Graph) Predecessors(id NodeID) []NodeID { return g.adj().pred.neighbours(g.index, id) }

// Roots returns nodes with no predecessors, in insertion order.
func (g *Graph) Roots() []NodeID { return g.withEmptyRow(&g.adj().pred) }

// Leaves returns nodes with no successors, in insertion order.
func (g *Graph) Leaves() []NodeID { return g.withEmptyRow(&g.adj().succ) }

func (g *Graph) withEmptyRow(c *csr) []NodeID {
	var out []NodeID
	for i, n := range g.nodes {
		if len(c.row(i)) == 0 {
			out = append(out, n.ID)
		}
	}
	return out
}

// TopoOrder returns a deterministic topological order (insertion order among
// ready nodes). Panics on an unfrozen graph: callers must validate first.
// The returned slice is the shared order computed at Freeze; callers must
// not modify it.
func (g *Graph) TopoOrder() []NodeID {
	g.mustBeFrozen("TopoOrder")
	return g.topo
}

func (g *Graph) mustBeFrozen(op string) {
	if !g.frozen {
		panic("dag: " + op + " on unfrozen graph")
	}
}

// CriticalPath returns the path with the greatest total Work and that total.
// It lower-bounds workflow latency given unlimited parallelism — the
// quantity Murakkab's execution-path expansion tries to approach.
func (g *Graph) CriticalPath() ([]NodeID, float64) {
	g.mustBeFrozen("CriticalPath")
	dist := make([]float64, len(g.nodes))
	via := make([]int32, len(g.nodes))
	best, bestDist := int32(-1), -1.0
	for _, i := range g.topoIdx {
		work := g.nodes[i].Work
		dist[i], via[i] = work, -1
		for _, p := range g.pred.row(int(i)) {
			if dist[p]+work > dist[i] {
				dist[i], via[i] = dist[p]+work, p
			}
		}
		if dist[i] > bestDist {
			best, bestDist = i, dist[i]
		}
	}
	if bestDist < 0 {
		return nil, 0
	}
	var path []NodeID
	for at := best; at >= 0; at = via[at] {
		path = append(path, g.nodes[at].ID)
	}
	slices.Reverse(path)
	return path, bestDist
}

// TotalWork sums Work across all nodes, in insertion order: float addition
// is not associative, so a fixed order is what makes the sum one value.
func (g *Graph) TotalWork() float64 {
	total := 0.0
	for _, n := range g.nodes {
		total += n.Work
	}
	return total
}

// CapabilityWork sums Work per capability, in insertion order (see
// TotalWork) — the demand signal the cluster manager uses for proactive
// scaling.
func (g *Graph) CapabilityWork() map[string]float64 {
	out := map[string]float64{}
	for _, n := range g.nodes {
		out[n.Capability] += n.Work
	}
	return out
}

// String renders a compact description for logs and golden tests.
func (g *Graph) String() string {
	a := g.adj()
	var b strings.Builder
	for i, n := range g.nodes {
		fmt.Fprintf(&b, "%s[%s]", n.ID, n.Capability)
		sep := " -> "
		for _, s := range a.succ.row(i) {
			b.WriteString(sep)
			b.WriteString(string(g.nodes[s].ID))
			sep = ","
		}
		b.WriteString("\n")
	}
	return b.String()
}
