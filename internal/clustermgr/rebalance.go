package clustermgr

import (
	"repro/internal/cluster"
	"repro/internal/sim"
)

// This file implements the manager's proactive rebalancing loop — the §3.2
// claim that DAG visibility lets the cluster manager "rebalance resources
// across models and tools more effectively": engines with queued work and
// upcoming demand grow; engines whose capability has no remaining work in
// any registered workflow shrink to their minimum, freeing GPUs for queued
// requests and other engines.

// growQueueThreshold is the queue depth that triggers a grow attempt.
const growQueueThreshold = 2

// EnableRebalancing starts the loop with the given period. Call once.
func (m *Manager) EnableRebalancing(period sim.Duration) {
	if m.ticker != nil {
		panic("clustermgr: rebalancing already enabled")
	}
	m.ticker = sim.NewTicker(m.se, period, func(sim.Time) { m.Rebalance() })
}

// StopRebalancing cancels the loop.
func (m *Manager) StopRebalancing() {
	if m.ticker != nil {
		m.ticker.Stop()
		m.ticker = nil
	}
}

// RebalancingEnabled reports whether the loop is running.
func (m *Manager) RebalancingEnabled() bool { return m.ticker != nil }

// Rebalance performs one scaling pass. Exposed for tests and for callers
// that want explicit control instead of the ticker.
func (m *Manager) Rebalance() {
	resizedBefore := m.grows + m.shrinks
	demand := m.UpcomingDemand()
	// Deterministic engine order.
	names := make([]string, 0, len(m.engines))
	for n := range m.engines {
		names = append(names, n)
	}
	sortStrings(names)

	// Shrink first: idle engines with no upcoming demand release GPUs that
	// the grow pass (and queued requests) can then use.
	for _, n := range names {
		h := m.engines[n]
		if h.pinned || h.rebuilding {
			continue
		}
		idle := h.Engine.ActiveCount() == 0 && h.Engine.QueueDepth() == 0
		if idle && demand[h.Capability] == 0 && h.Engine.GPUs() > h.minGPUs {
			if m.resizeEngine(h, h.minGPUs) {
				m.shrinks++
			}
		}
	}
	for _, n := range names {
		h := m.engines[n]
		if h.pinned || h.rebuilding {
			continue
		}
		saturated := h.Engine.Utilization() > 0.9 && h.Engine.ActiveCount() > h.Engine.GPUs()
		if (h.Engine.QueueDepth() >= growQueueThreshold || saturated) && h.Engine.GPUs() < h.maxGPUs {
			target := h.Engine.GPUs() + 1
			free := m.cl.FreeGPUs(h.GPUType)
			if free >= 1 && m.resizeEngine(h, target) {
				m.grows++
			}
		}
	}
	m.drainPending()
	if m.grows+m.shrinks != resizedBefore {
		for _, fn := range m.rebalanceHooks {
			fn()
		}
	}
}

// resizeEngine rebinds an engine to a new GPU count. The old allocation is
// released first and the new one taken immediately; the m.resizing guard
// keeps the release hooks from granting the freed GPUs to queued requests
// in between (the simulation is single-threaded, so nothing else can run).
// If the new allocation fails, the engine is restored to its previous size —
// which cannot fail, because those GPUs were just freed.
func (m *Manager) resizeEngine(h *EngineHandle, gpus int) bool {
	if gpus == h.Engine.GPUs() {
		return false
	}
	m.resizing = true
	defer func() {
		m.resizing = false
		m.drainPending()
	}()

	old := h.alloc
	oldSize := old.Count()
	old.OnPreempt = nil
	old.Release()
	alloc, err := m.cl.AllocGPUs(gpus, h.GPUType)
	if err != nil {
		alloc, err = m.cl.AllocGPUs(oldSize, h.GPUType)
		if err != nil {
			panic("clustermgr: cannot restore engine allocation after failed resize")
		}
	}
	h.alloc = alloc
	alloc.OnPreempt = func() { m.rebuildEngine(h) }
	if rerr := h.Engine.Resize(alloc); rerr != nil {
		panic(rerr) // alloc is non-empty by construction
	}
	return err == nil
}

// rebuildEngine recovers an engine whose VM was preempted: after a weight-
// reload delay it re-allocates at minimum size (queueing until capacity
// exists). In-flight requests were lost with the KV cache; llmsim keeps
// them queued/active and they resume under the new allocation.
func (m *Manager) rebuildEngine(h *EngineHandle) {
	if h.rebuilding {
		return
	}
	h.rebuilding = true
	m.se.After(EngineReloadDelayS, func() {
		if err := m.RequestGPUs(h.minGPUs, h.GPUType, h, 0); err != nil {
			panic(err) // minGPUs was valid at engine creation
		}
	})
}

// GrantGPUs adopts the allocation a rebuild requested — the handle is the
// manager's own grantee. An engine has one rebuild in flight at most (the
// rebuilding flag) and is never reused, so it needs no token.
func (h *EngineHandle) GrantGPUs(alloc *cluster.GPUAlloc, _ uint32) {
	h.alloc = alloc
	alloc.OnPreempt = func() { h.mgr.rebuildEngine(h) }
	if rerr := h.Engine.Resize(alloc); rerr != nil {
		panic(rerr)
	}
	h.rebuilding = false
}

func (m *Manager) handlePreempt(vm *cluster.VM) {
	// Allocation-level OnPreempt callbacks already handle engine rebuilds
	// and task retries; here we only retry queued requests, since capacity
	// shifted.
	m.se.Defer(m.drainFn)
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
