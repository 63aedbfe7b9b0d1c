// Package clustermgr implements the paper's workflow-aware cluster manager
// (§3.2): it owns the cluster's allocations and the LLM serving engines,
// queues resource requests, exports utilization stats to the orchestrator
// (the "Resource-Aware Workflow Orchestration" feed), receives workflow DAGs
// from the orchestrator (the "Workflow-Aware Cluster Management" feed), and
// runs a rebalancing loop that reallocates GPUs between models based on
// upcoming demand — the paper's example of moving GPUs from Whisper to Llama
// when no Speech-to-Text work is expected.
package clustermgr

import (
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/dag"
	"repro/internal/hardware"
	"repro/internal/llmsim"
	"repro/internal/sim"
)

// EngineReloadDelayS models weight reloading when an engine is rebuilt
// after losing its VM to preemption.
const EngineReloadDelayS = 5.0

// Manager is the cluster manager.
type Manager struct {
	se  *sim.Engine
	cl  *cluster.Cluster
	cat *hardware.Catalog

	engines map[string]*EngineHandle // by model name

	// The pending queues pop via head cursors and compact to [:0] when
	// drained, so one backing array serves every burst — popping with
	// s = s[1:] made each later append re-allocate the queue.
	pendingGPU []gpuRequest
	gpuHead    int
	pendingCPU []cpuRequest
	cpuHead    int
	draining   bool
	resizing   bool
	// drainFn is the method value m.drainPending, materialized once: every
	// request defers a drain, and a fresh method value each time was an
	// allocation per request.
	drainFn func()

	trackers []*dag.Tracker
	ticker   *sim.Ticker

	// breakers is the per-implementation circuit-breaker table (nil until
	// EnableBreakers; see breaker.go).
	breakers *breakerSet

	// Rebalance accounting for the ablation benches.
	grows, shrinks int
	// rebalanceHooks fire after a Rebalance pass that resized at least one
	// engine — how the scheduler's reconfiguration controller observes fleet
	// reshaping that the cluster's capacity generation cannot see (engine
	// resizes move allocations, not totals).
	rebalanceHooks []func()
}

// GPUGrantee receives the GPUs a queued request was waiting for. token is
// the value the grantee passed with its request: a grant can outlive the state
// that asked for it (a stage worker destroyed and reused while its request was
// queued), so the grantee compares the token with its current generation and
// releases a grant that is stale. The request is a plain record in the
// manager's queue — no closure is built per request.
type GPUGrantee interface {
	GrantGPUs(a *cluster.GPUAlloc, token uint32)
}

// CPUGrantee is GPUGrantee for cores.
type CPUGrantee interface {
	GrantCPUs(a *cluster.CPUAlloc, token uint32)
}

type gpuRequest struct {
	n       int
	t       hardware.GPUType
	grantee GPUGrantee
	token   uint32
}

type cpuRequest struct {
	cores   int
	grantee CPUGrantee
	token   uint32
}

// EngineHandle pairs a serving engine with its allocation and scaling
// envelope.
type EngineHandle struct {
	Capability string
	Spec       llmsim.ModelSpec
	Engine     *llmsim.Engine
	GPUType    hardware.GPUType

	alloc            *cluster.GPUAlloc
	minGPUs, maxGPUs int
	pinned           bool
	rebuilding       bool
	mgr              *Manager
}

// GPUs returns the engine's current GPU count.
func (h *EngineHandle) GPUs() int { return h.Engine.GPUs() }

// New creates a manager over a cluster.
func New(se *sim.Engine, cl *cluster.Cluster) *Manager {
	m := &Manager{
		se:      se,
		cl:      cl,
		cat:     cl.Catalog(),
		engines: map[string]*EngineHandle{},
	}
	m.drainFn = m.drainPending
	cl.OnRelease(m.drainFn)
	cl.OnPreempt(m.handlePreempt)
	return m
}

// RequestGPUs asynchronously acquires n GPUs of type t, handing them to
// grantee (with token) when they are held. Requests queue FIFO when capacity
// is unavailable. Impossible requests (more than the cluster ever had) error
// immediately.
func (m *Manager) RequestGPUs(n int, t hardware.GPUType, grantee GPUGrantee, token uint32) error {
	if n <= 0 {
		return fmt.Errorf("clustermgr: non-positive GPU request %d", n)
	}
	if m.cl.TotalGPUs(t) < n {
		return fmt.Errorf("clustermgr: request for %d %s GPUs exceeds cluster total %d",
			n, t, m.cl.TotalGPUs(t))
	}
	m.pendingGPU = append(m.pendingGPU, gpuRequest{n: n, t: t, grantee: grantee, token: token})
	m.se.Defer(m.drainFn)
	return nil
}

// RequestCPUs asynchronously acquires cores on one VM for grantee.
func (m *Manager) RequestCPUs(cores int, grantee CPUGrantee, token uint32) error {
	if cores <= 0 {
		return fmt.Errorf("clustermgr: non-positive CPU request %d", cores)
	}
	most := 0
	for _, vm := range m.cl.VMs() {
		if vm.SKU.CPUCores > most {
			most = vm.SKU.CPUCores
		}
	}
	if cores > most {
		return fmt.Errorf("clustermgr: request for %d cores exceeds largest VM (%d)", cores, most)
	}
	m.pendingCPU = append(m.pendingCPU, cpuRequest{cores: cores, grantee: grantee, token: token})
	m.se.Defer(m.drainFn)
	return nil
}

// drainPending grants queued requests FIFO while capacity allows. GPU and
// CPU queues are independent; within each, the head blocks later requests
// (no starvation). A blocked head is re-probed on every release and every
// deferred drain, so capacity is tested here with the allocators' own
// failure conditions instead of calling them for an error nobody reads.
func (m *Manager) drainPending() {
	if m.draining || m.resizing {
		return
	}
	m.draining = true
	defer func() { m.draining = false }()

	for m.gpuHead < len(m.pendingGPU) {
		req := m.pendingGPU[m.gpuHead]
		if m.cl.FreeGPUs(req.t) < req.n {
			break
		}
		alloc, err := m.cl.AllocGPUs(req.n, req.t)
		if err != nil {
			break
		}
		m.pendingGPU[m.gpuHead] = gpuRequest{} // drop the grantee ref
		m.gpuHead++
		req.grantee.GrantGPUs(alloc, req.token)
	}
	if m.gpuHead == len(m.pendingGPU) {
		m.pendingGPU = m.pendingGPU[:0]
		m.gpuHead = 0
	}
	for m.cpuHead < len(m.pendingCPU) {
		req := m.pendingCPU[m.cpuHead]
		if m.cl.MaxFreeCPUCores() < req.cores {
			break
		}
		alloc, err := m.cl.AllocCPUs(req.cores)
		if err != nil {
			break
		}
		m.pendingCPU[m.cpuHead] = cpuRequest{}
		m.cpuHead++
		req.grantee.GrantCPUs(alloc, req.token)
	}
	if m.cpuHead == len(m.pendingCPU) {
		m.pendingCPU = m.pendingCPU[:0]
		m.cpuHead = 0
	}
}

// PendingGPURequests returns the GPU queue depth.
func (m *Manager) PendingGPURequests() int { return len(m.pendingGPU) - m.gpuHead }

// PendingCPURequests returns the CPU queue depth.
func (m *Manager) PendingCPURequests() int { return len(m.pendingCPU) - m.cpuHead }

// EnsureEngine returns the engine serving spec.Name, creating it with the
// given GPU count if absent. pinned engines are exempt from autoscaling
// (the §4 setup pins NVLM at 8 text + 2 embedding GPUs). min/max bound the
// autoscaler; they default to (1, gpus) when zero.
func (m *Manager) EnsureEngine(capability string, spec llmsim.ModelSpec, gpus int, t hardware.GPUType, minGPUs, maxGPUs int, pinned bool) (*EngineHandle, error) {
	if h, ok := m.engines[spec.Name]; ok {
		return h, nil
	}
	alloc, err := m.cl.AllocGPUs(gpus, t)
	if err != nil {
		return nil, fmt.Errorf("clustermgr: cannot place engine %s: %w", spec.Name, err)
	}
	eng, err := llmsim.NewEngine(m.se, m.cat, spec, alloc)
	if err != nil {
		alloc.Release()
		return nil, err
	}
	if minGPUs <= 0 {
		minGPUs = 1
	}
	if maxGPUs <= 0 {
		maxGPUs = gpus
	}
	h := &EngineHandle{
		Capability: capability,
		Spec:       spec,
		Engine:     eng,
		GPUType:    t,
		alloc:      alloc,
		minGPUs:    minGPUs,
		maxGPUs:    maxGPUs,
		pinned:     pinned,
		mgr:        m,
	}
	alloc.OnPreempt = func() { m.rebuildEngine(h) }
	m.engines[spec.Name] = h
	return h, nil
}

// Engine returns an engine handle by model name.
func (m *Manager) Engine(model string) (*EngineHandle, bool) {
	h, ok := m.engines[model]
	return h, ok
}

// EngineForCapability returns the engine serving a capability whose model
// name sorts first (for determinism: the engines sit in a map).
func (m *Manager) EngineForCapability(capability string) (*EngineHandle, bool) {
	var first *EngineHandle
	var firstName string
	for name, h := range m.engines {
		if h.Capability == capability && (first == nil || name < firstName) {
			first, firstName = h, name
		}
	}
	return first, first != nil
}

// ReleaseEngine tears down an engine and frees its GPUs. Releasing an
// engine with in-flight work is the caller's responsibility to avoid (use
// Engine.OnDrained).
func (m *Manager) ReleaseEngine(model string) {
	h, ok := m.engines[model]
	if !ok {
		return
	}
	delete(m.engines, model)
	h.alloc.OnPreempt = nil
	h.alloc.Release()
}

// RegisterWorkflow gives the manager DAG visibility for lookahead.
func (m *Manager) RegisterWorkflow(t *dag.Tracker) {
	m.trackers = append(m.trackers, t)
}

// UnregisterWorkflow removes a completed workflow.
func (m *Manager) UnregisterWorkflow(t *dag.Tracker) {
	// slices.Delete clears the vacated tail slot: the tracker sits inside its
	// execution, and a stale pointer to it would keep the whole job alive.
	if i := slices.Index(m.trackers, t); i >= 0 {
		m.trackers = slices.Delete(m.trackers, i, i+1)
	}
}

// UpcomingDemand aggregates remaining capability work across registered
// workflows — the signal behind proactive scaling decisions.
func (m *Manager) UpcomingDemand() map[string]float64 {
	out := map[string]float64{}
	for _, t := range m.trackers {
		for cap, work := range t.RemainingCapabilityWork() {
			out[cap] += work
		}
	}
	return out
}

// EngineStats summarizes one serving engine for the stats feed.
type EngineStats struct {
	Model      string
	Capability string
	GPUs       int
	QueueDepth int
	Active     int
	KVUsed     int
	KVCapacity int
}

// Stats is the §3.2 stats feed: cluster capacity plus engine state.
type Stats struct {
	Cluster cluster.Snapshot
	Engines map[string]EngineStats
}

// Stats captures the current view.
func (m *Manager) Stats() Stats {
	s := Stats{Cluster: m.cl.Snapshot(), Engines: map[string]EngineStats{}}
	for name, h := range m.engines {
		s.Engines[name] = EngineStats{
			Model:      name,
			Capability: h.Capability,
			GPUs:       h.Engine.GPUs(),
			QueueDepth: h.Engine.QueueDepth(),
			Active:     h.Engine.ActiveCount(),
			KVUsed:     h.Engine.KVUsed(),
			KVCapacity: h.Engine.KVCapacity(),
		}
	}
	return s
}

// Rebalances returns (grows, shrinks) performed so far.
func (m *Manager) Rebalances() (int, int) { return m.grows, m.shrinks }

// OnRebalance registers a hook invoked after every Rebalance pass that
// actually resized an engine. Hooks run on the simulation goroutine at the
// end of the pass, after queued requests were re-drained.
func (m *Manager) OnRebalance(fn func()) { m.rebalanceHooks = append(m.rebalanceHooks, fn) }
