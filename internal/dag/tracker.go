package dag

import "fmt"

// Tracker drives execution over a frozen graph: it hands out ready nodes
// (the frontier) as their predecessors complete, and answers the cluster
// manager's lookahead queries about remaining capability demand.
//
// State machine per node: pending → ready → running → done. Failed nodes may
// be retried (returned to ready) — the runtime's failure-injection tests
// exercise this path.
type Tracker struct {
	g *Graph
	// cells is indexed like the graph's nodes: dense state, so a tracker costs
	// two allocations and only the entry points that take an ID hash it.
	cells []trackerCell
	done  int
}

type trackerCell struct {
	state   nodeState
	waiting int32 // unfinished predecessor count
}

type nodeState int32

const (
	statePending nodeState = iota
	stateReady
	stateRunning
	stateDone
)

// NewTracker creates a tracker over a frozen graph.
func NewTracker(g *Graph) *Tracker {
	g.mustBeFrozen("NewTracker")
	t := &Tracker{g: g, cells: make([]trackerCell, g.Len())}
	for i := range t.cells {
		t.cells[i].waiting = int32(len(g.pred.row(i)))
		if t.cells[i].waiting == 0 {
			t.cells[i].state = stateReady
		}
	}
	return t
}

// cell returns the tracker cell for id, or nil for an unknown node.
func (t *Tracker) cell(id NodeID) *trackerCell {
	i, ok := t.g.index[id]
	if !ok {
		return nil
	}
	return &t.cells[i]
}

// Graph returns the underlying graph.
func (t *Tracker) Graph() *Graph { return t.g }

// Ready returns IDs currently ready to run, in graph insertion order.
func (t *Tracker) Ready() []NodeID { return t.AppendReady(nil) }

// AppendReady appends the currently-ready IDs to buf (graph insertion
// order) and returns the extended slice, letting hot paths reuse a scratch
// buffer instead of allocating one per frontier scan.
func (t *Tracker) AppendReady(buf []NodeID) []NodeID {
	for i, n := range t.g.nodes {
		if t.cells[i].state == stateReady {
			buf = append(buf, n.ID)
		}
	}
	return buf
}

// Start transitions a ready node to running.
func (t *Tracker) Start(id NodeID) error {
	c := t.cell(id)
	if c == nil || c.state != stateReady {
		return fmt.Errorf("dag: Start(%q) in state %v", id, t.stateOf(id))
	}
	c.state = stateRunning
	return nil
}

// stateOf reports the state for error messages; unknown nodes read as
// pending, matching the old map-backed zero value.
func (t *Tracker) stateOf(id NodeID) nodeState {
	if c := t.cell(id); c != nil {
		return c.state
	}
	return statePending
}

// Complete transitions a running node to done and returns any newly-ready
// successors (in deterministic order).
func (t *Tracker) Complete(id NodeID) ([]NodeID, error) {
	return t.CompleteAppend(id, nil)
}

// CompleteAppend is Complete with a caller-supplied scratch buffer: newly
// ready successors are appended to buf and the extended slice returned, so a
// hot dispatch loop completes nodes without allocating a frontier slice per
// task.
func (t *Tracker) CompleteAppend(id NodeID, buf []NodeID) ([]NodeID, error) {
	i, ok := t.g.index[id]
	if !ok || t.cells[i].state != stateRunning {
		return buf, fmt.Errorf("dag: Complete(%q) in state %v", id, t.stateOf(id))
	}
	t.cells[i].state = stateDone
	t.done++
	for _, s := range t.g.succ.row(int(i)) {
		sc := &t.cells[s]
		sc.waiting--
		if sc.waiting < 0 {
			panic("dag: predecessor count below zero")
		}
		if sc.waiting == 0 && sc.state == statePending {
			sc.state = stateReady
			buf = append(buf, t.g.nodes[s].ID)
		}
	}
	return buf, nil
}

// Fail returns a running node to ready so it can be retried (e.g. after a
// spot preemption killed its resources).
func (t *Tracker) Fail(id NodeID) error {
	c := t.cell(id)
	if c == nil || c.state != stateRunning {
		return fmt.Errorf("dag: Fail(%q) in state %v", id, t.stateOf(id))
	}
	c.state = stateReady
	return nil
}

// Done reports whether every node completed.
func (t *Tracker) Done() bool { return t.done == t.g.Len() }

// CompletedCount returns the number of completed nodes.
func (t *Tracker) CompletedCount() int { return t.done }

// Running returns IDs currently running, in graph insertion order.
func (t *Tracker) Running() []NodeID {
	var out []NodeID
	for i, n := range t.g.nodes {
		if t.cells[i].state == stateRunning {
			out = append(out, n.ID)
		}
	}
	return out
}

// RemainingNodes returns the nodes that have not completed (pending, ready
// or running), in graph insertion order — the "remaining DAG" view the
// reconfiguration controller re-plans over at stage boundaries.
func (t *Tracker) RemainingNodes() []*Node {
	var out []*Node
	for i, n := range t.g.nodes {
		if t.cells[i].state != stateDone {
			out = append(out, n)
		}
	}
	return out
}

// RemainingCapabilityWork sums Work per capability over nodes that are not
// yet done. This is the §3.2 lookahead signal: "if no workflows are expected
// to require a Speech-To-Text agent soon, [the Cluster Manager] can
// reallocate GPU resources from Whisper to Llama".
func (t *Tracker) RemainingCapabilityWork() map[string]float64 {
	out := map[string]float64{}
	for i, n := range t.g.nodes {
		if t.cells[i].state != stateDone {
			out[n.Capability] += n.Work
		}
	}
	return out
}

// UpcomingCapabilities returns capabilities of pending+ready nodes whose
// remaining depth from the frontier is at most horizon hops. horizon 0 means
// only ready nodes.
func (t *Tracker) UpcomingCapabilities(horizon int) map[string]bool {
	// BFS from ready/running nodes through pending successors; hops holds
	// each reached node's depth plus one, zero meaning not reached.
	hops := make([]int, len(t.cells))
	var queue []int32
	for i, c := range t.cells {
		if c.state == stateReady || c.state == stateRunning {
			hops[i] = 1
			queue = append(queue, int32(i))
		}
	}
	out := map[string]bool{}
	for head := 0; head < len(queue); head++ {
		i := queue[head]
		d := hops[i] - 1
		if t.cells[i].state != stateDone && d <= horizon {
			out[t.g.nodes[i].Capability] = true
		}
		if d == horizon {
			continue
		}
		for _, s := range t.g.succ.row(int(i)) {
			if hops[s] == 0 {
				hops[s] = d + 2
				queue = append(queue, s)
			}
		}
	}
	return out
}
