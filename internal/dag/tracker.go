package dag

import "fmt"

// Tracker drives execution over a frozen graph: it hands out ready nodes
// (the frontier) as their predecessors complete, and answers the cluster
// manager's lookahead queries about remaining capability demand.
//
// State machine per node: pending → ready → running → done. Failed nodes may
// be retried (returned to ready) — the runtime's failure-injection tests
// exercise this path.
//
// An executor that walks the graph by node index drives it through StartAt,
// CompleteAt, FailAt and AppendReadyAt; the entry points that take a NodeID
// hash it to an index first and are for callers that hold nothing else.
type Tracker struct {
	g *Graph
	// cells is indexed like the graph's nodes, two int32s each: node i's
	// state at 2i and its unfinished predecessor count at 2i+1. Plain int32s
	// so that a caller can cut them from a slab it shares with other indices.
	cells []int32
	done  int
}

type nodeState int32

const (
	statePending nodeState = iota
	stateReady
	stateRunning
	stateDone
)

// TrackerCells returns how many int32s a tracker over g keeps its state in —
// the length of the storage Init wants.
func TrackerCells(g *Graph) int { return 2 * g.Len() }

// NewTracker creates a tracker over a frozen graph.
func NewTracker(g *Graph) *Tracker {
	t := new(Tracker)
	t.Init(g, make([]int32, TrackerCells(g)))
	return t
}

// Init makes t a fresh tracker over the frozen graph g, keeping its state in
// cells (TrackerCells(g) long): for an executor that holds the tracker by
// value and its cells in storage of its own.
func (t *Tracker) Init(g *Graph, cells []int32) {
	g.mustBeFrozen("NewTracker")
	*t = Tracker{g: g, cells: cells[:TrackerCells(g)]}
	for i := range g.nodes {
		waiting := int32(len(g.pred.row(i)))
		state := statePending
		if waiting == 0 {
			state = stateReady
		}
		t.cells[2*i], t.cells[2*i+1] = int32(state), waiting
	}
}

func (t *Tracker) state(i int32) nodeState { return nodeState(t.cells[2*i]) }

func (t *Tracker) setState(i int32, s nodeState) { t.cells[2*i] = int32(s) }

// move takes node i from one state to the next, or reports which state op
// found it in.
func (t *Tracker) move(op string, i int32, from, to nodeState) error {
	if t.state(i) != from {
		return fmt.Errorf("dag: %s(%q) in state %v", op, t.g.nodes[i].ID, t.state(i))
	}
	t.setState(i, to)
	return nil
}

// moveID is move for a caller that holds an ID. Unknown nodes read as
// pending, matching the old map-backed zero value.
func (t *Tracker) moveID(op string, id NodeID, from, to nodeState) (int32, error) {
	i, ok := t.g.index[id]
	if !ok {
		return 0, fmt.Errorf("dag: %s(%q) in state %v", op, id, statePending)
	}
	return i, t.move(op, i, from, to)
}

// release counts one finished predecessor off node s and reports whether
// that made it ready.
func (t *Tracker) release(s int32) bool {
	t.cells[2*s+1]--
	if t.cells[2*s+1] < 0 {
		panic("dag: predecessor count below zero")
	}
	if t.cells[2*s+1] == 0 && t.state(s) == statePending {
		t.setState(s, stateReady)
		return true
	}
	return false
}

// Graph returns the underlying graph.
func (t *Tracker) Graph() *Graph { return t.g }

// AppendReady appends the currently-ready IDs to buf (graph insertion
// order) and returns the extended slice, letting hot paths reuse a scratch
// buffer instead of allocating one per frontier scan.
func (t *Tracker) AppendReady(buf []NodeID) []NodeID {
	for i, n := range t.g.nodes {
		if t.state(int32(i)) == stateReady {
			buf = append(buf, n.ID)
		}
	}
	return buf
}

// AppendReadyAt is AppendReady in node indices.
func (t *Tracker) AppendReadyAt(buf []int32) []int32 {
	for i := range t.g.nodes {
		if t.state(int32(i)) == stateReady {
			buf = append(buf, int32(i))
		}
	}
	return buf
}

// Start transitions a ready node to running.
func (t *Tracker) Start(id NodeID) error {
	_, err := t.moveID("Start", id, stateReady, stateRunning)
	return err
}

// StartAt is Start for the node at index i.
func (t *Tracker) StartAt(i int32) error { return t.move("Start", i, stateReady, stateRunning) }

// CompleteAppend transitions a running node to done and appends any
// newly-ready successors (in deterministic order) to buf, returning the
// extended slice, so a hot dispatch loop completes nodes without allocating a
// frontier slice per task.
func (t *Tracker) CompleteAppend(id NodeID, buf []NodeID) ([]NodeID, error) {
	i, err := t.moveID("Complete", id, stateRunning, stateDone)
	if err != nil {
		return buf, err
	}
	t.done++
	for _, s := range t.g.succ.row(int(i)) {
		if t.release(s) {
			buf = append(buf, t.g.nodes[s].ID)
		}
	}
	return buf, nil
}

// CompleteAt is CompleteAppend in node indices.
func (t *Tracker) CompleteAt(i int32, buf []int32) ([]int32, error) {
	if err := t.move("Complete", i, stateRunning, stateDone); err != nil {
		return buf, err
	}
	t.done++
	for _, s := range t.g.succ.row(int(i)) {
		if t.release(s) {
			buf = append(buf, s)
		}
	}
	return buf, nil
}

// FailAt returns the running node at index i to ready so it can be retried
// (e.g. after a spot preemption killed its resources).
func (t *Tracker) FailAt(i int32) error { return t.move("Fail", i, stateRunning, stateReady) }

// Done reports whether every node completed.
func (t *Tracker) Done() bool { return t.done == t.g.Len() }

// CompletedCount returns the number of completed nodes.
func (t *Tracker) CompletedCount() int { return t.done }

// RemainingNodes returns the nodes that have not completed (pending, ready
// or running), in graph insertion order — the "remaining DAG" view the
// reconfiguration controller re-plans over at stage boundaries.
func (t *Tracker) RemainingNodes() []*Node {
	var out []*Node
	for i, n := range t.g.nodes {
		if t.state(int32(i)) != stateDone {
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
		if t.state(int32(i)) != stateDone {
			out[n.Capability] += n.Work
		}
	}
	return out
}
