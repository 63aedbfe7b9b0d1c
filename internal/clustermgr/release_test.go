package clustermgr

import (
	"testing"

	"repro/internal/agents"
	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/llmsim"
)

func TestReleaseEngineFreesGPUs(t *testing.T) {
	se, cl, m := testMgr(t)
	_, err := m.EnsureEngine(string(agents.CapSummarization), llmsim.NVLMText(), 8, hardware.GPUA100, 4, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	if cl.FreeGPUs(hardware.GPUA100) != 8 {
		t.Fatal("engine holds no GPUs")
	}
	m.ReleaseEngine("nvlm-d-72b")
	if cl.FreeGPUs(hardware.GPUA100) != 16 {
		t.Fatalf("free = %d after release, want 16", cl.FreeGPUs(hardware.GPUA100))
	}
	if _, ok := m.Engine("nvlm-d-72b"); ok {
		t.Fatal("engine still registered after release")
	}
	// Idempotent: unknown model is a no-op.
	m.ReleaseEngine("nvlm-d-72b")
	m.ReleaseEngine("never-existed")
	se.Run()
}

func TestReleaseEngineUnblocksQueuedRequests(t *testing.T) {
	se, _, m := testMgr(t)
	m.EnsureEngine(string(agents.CapSummarization), llmsim.NVLMText(), 8, hardware.GPUA100, 4, 8, true)
	var hold *cluster.GPUAlloc
	m.RequestGPUs(8, hardware.GPUA100, gpuGrant(func(a *cluster.GPUAlloc) { hold = a }), 0)
	se.Run()
	var got *cluster.GPUAlloc
	m.RequestGPUs(8, hardware.GPUA100, gpuGrant(func(a *cluster.GPUAlloc) { got = a }), 0)
	se.Run()
	if got != nil {
		t.Fatal("granted before engine release")
	}
	m.ReleaseEngine("nvlm-d-72b")
	se.Run()
	if got == nil {
		t.Fatal("engine release did not unblock the queued request")
	}
	if hold == nil {
		t.Fatal("first request never granted")
	}
}

func TestEnsureEngineFailsWithoutCapacity(t *testing.T) {
	_, cl, m := testMgr(t)
	hold, _ := cl.AllocGPUs(16, hardware.GPUA100)
	defer hold.Release()
	if _, err := m.EnsureEngine(string(agents.CapSummarization), llmsim.NVLMText(), 8, hardware.GPUA100, 4, 8, true); err == nil {
		t.Fatal("engine placed on a full cluster")
	}
}

func TestRebalanceNoopWithoutEngines(t *testing.T) {
	se, _, m := testMgr(t)
	m.Rebalance() // must not panic with no engines
	grows, shrinks := m.Rebalances()
	if grows != 0 || shrinks != 0 {
		t.Fatalf("rebalances = %d/%d on empty manager", grows, shrinks)
	}
	se.Run()
}

func TestRebalanceGrowBlockedWhenClusterFull(t *testing.T) {
	se, cl, m := testMgr(t)
	h, _ := m.EnsureEngine(string(agents.CapSummarization), llmsim.NVLMText(), 4, hardware.GPUA100, 4, 8, false)
	hold, _ := cl.AllocGPUs(12, hardware.GPUA100) // nothing free
	defer hold.Release()
	for i := 0; i < 80; i++ {
		h.Engine.Submit(&llmsim.Request{ID: string(rune('a' + i%26)), PromptTokens: 4000, OutputTokens: 1000})
	}
	m.Rebalance()
	if h.GPUs() != 4 {
		t.Fatalf("engine grew to %d with zero free GPUs", h.GPUs())
	}
	se.Run()
}

func TestStopRebalancingIdempotent(t *testing.T) {
	se, _, m := testMgr(t)
	m.StopRebalancing() // never enabled: no-op
	m.EnableRebalancing(5)
	if !m.RebalancingEnabled() {
		t.Fatal("not enabled")
	}
	m.StopRebalancing()
	m.StopRebalancing()
	if m.RebalancingEnabled() {
		t.Fatal("still enabled")
	}
	// Re-enabling after stop works.
	m.EnableRebalancing(5)
	m.StopRebalancing()
	se.Run()
}

func TestEnableRebalancingTwicePanics(t *testing.T) {
	_, _, m := testMgr(t)
	m.EnableRebalancing(5)
	defer func() {
		if recover() == nil {
			t.Fatal("double enable did not panic")
		}
		m.StopRebalancing()
	}()
	m.EnableRebalancing(5)
}
