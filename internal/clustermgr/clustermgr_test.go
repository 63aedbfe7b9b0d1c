package clustermgr

import (
	"fmt"
	"testing"

	"repro/internal/agents"
	"repro/internal/cluster"
	"repro/internal/dag"
	"repro/internal/hardware"
	"repro/internal/llmsim"
	"repro/internal/sim"
)

// gpuGrant adapts a closure to the grantee protocol: the closure form of
// RequestGPUs exists only here.
type gpuGrant func(*cluster.GPUAlloc)

func (f gpuGrant) GrantGPUs(a *cluster.GPUAlloc, _ uint32) { f(a) }

// tokenLog records the token each grant arrives with and hands the grant back.
type tokenLog struct{ gpu, cpu []uint32 }

func (l *tokenLog) GrantGPUs(a *cluster.GPUAlloc, token uint32) {
	l.gpu = append(l.gpu, token)
	a.Release()
}

func (l *tokenLog) GrantCPUs(a *cluster.CPUAlloc, token uint32) {
	l.cpu = append(l.cpu, token)
	a.Release()
}

// TestGrantsCarryTheirToken: a request is a record {grantee, token} in the
// manager's queue; whatever token it was issued with comes back with the
// grant, in FIFO order, however long it waited — the grantee, not a captured
// variable, decides whether the grant is stale.
func TestGrantsCarryTheirToken(t *testing.T) {
	se, cl, m := testMgr(t)
	gpuHog, err := cl.AllocGPUs(16, hardware.GPUA100)
	if err != nil {
		t.Fatal(err)
	}
	var cpuHogs []*cluster.CPUAlloc
	for cl.MaxFreeCPUCores() > 0 {
		a, err := cl.AllocCPUs(cl.MaxFreeCPUCores())
		if err != nil {
			t.Fatal(err)
		}
		cpuHogs = append(cpuHogs, a)
	}
	var log tokenLog
	for tok := uint32(7); tok < 10; tok++ {
		if err := m.RequestGPUs(2, hardware.GPUA100, &log, tok); err != nil {
			t.Fatal(err)
		}
		if err := m.RequestCPUs(8, &log, tok+100); err != nil {
			t.Fatal(err)
		}
	}
	se.Run()
	if len(log.gpu)+len(log.cpu) != 0 || m.PendingGPURequests() != 3 || m.PendingCPURequests() != 3 {
		t.Fatalf("granted %v %v with no capacity (pending %d/%d)", log.gpu, log.cpu, m.PendingGPURequests(), m.PendingCPURequests())
	}
	gpuHog.Release()
	for _, h := range cpuHogs {
		h.Release()
	}
	if fmt.Sprint(log.gpu, log.cpu) != "[7 8 9] [107 108 109]" {
		t.Fatalf("tokens came back as %v %v", log.gpu, log.cpu)
	}
	if m.PendingGPURequests()+m.PendingCPURequests() != 0 || cl.FreeGPUs(hardware.GPUA100) != 16 || cl.FreeCPUCores() != 192 {
		t.Fatal("queues not drained or grants not handed back")
	}
}

func testMgr(t *testing.T) (*sim.Engine, *cluster.Cluster, *Manager) {
	t.Helper()
	se := sim.NewEngine()
	cl := cluster.New(se, hardware.DefaultCatalog())
	cl.AddVM("vm0", hardware.NDv4SKUName, false)
	cl.AddVM("vm1", hardware.NDv4SKUName, false)
	return se, cl, New(se, cl)
}

func TestRequestGPUsImmediate(t *testing.T) {
	se, _, m := testMgr(t)
	var got *cluster.GPUAlloc
	if err := m.RequestGPUs(4, hardware.GPUA100, gpuGrant(func(a *cluster.GPUAlloc) { got = a }), 0); err != nil {
		t.Fatal(err)
	}
	se.Run()
	if got == nil || got.Count() != 4 {
		t.Fatalf("grant = %v", got)
	}
}

func TestRequestGPUsQueuesUntilRelease(t *testing.T) {
	se, cl, m := testMgr(t)
	first, err := cl.AllocGPUs(16, hardware.GPUA100)
	if err != nil {
		t.Fatal(err)
	}
	var got *cluster.GPUAlloc
	m.RequestGPUs(8, hardware.GPUA100, gpuGrant(func(a *cluster.GPUAlloc) { got = a }), 0)
	se.Run()
	if got != nil {
		t.Fatal("granted despite full cluster")
	}
	if m.PendingGPURequests() != 1 {
		t.Fatalf("pending = %d, want 1", m.PendingGPURequests())
	}
	se.Schedule(10, func() { first.Release() })
	se.Run()
	if got == nil {
		t.Fatal("queued request not granted after release")
	}
	if m.PendingGPURequests() != 0 {
		t.Fatal("queue not drained")
	}
}

func TestRequestImpossibleErrors(t *testing.T) {
	_, _, m := testMgr(t)
	if err := m.RequestGPUs(17, hardware.GPUA100, nil, 0); err == nil {
		t.Error("17-GPU request accepted on 16-GPU cluster")
	}
	if err := m.RequestGPUs(1, hardware.GPUH100, nil, 0); err == nil {
		t.Error("H100 request accepted on A100 cluster")
	}
	if err := m.RequestCPUs(97, nil, 0); err == nil {
		t.Error("97-core request accepted with 96-core VMs")
	}
	if err := m.RequestGPUs(0, hardware.GPUA100, nil, 0); err == nil {
		t.Error("zero request accepted")
	}
}

func TestFIFOGPURequests(t *testing.T) {
	se, cl, m := testMgr(t)
	hold, _ := cl.AllocGPUs(16, hardware.GPUA100)
	var order []string
	m.RequestGPUs(12, hardware.GPUA100, gpuGrant(func(a *cluster.GPUAlloc) { order = append(order, "big") }), 0)
	m.RequestGPUs(2, hardware.GPUA100, gpuGrant(func(a *cluster.GPUAlloc) { order = append(order, "small") }), 0)
	se.Run()
	hold.Release()
	se.Run()
	if len(order) != 2 || order[0] != "big" || order[1] != "small" {
		t.Fatalf("order = %v, want FIFO [big small]", order)
	}
}

func TestEnsureEngineIdempotent(t *testing.T) {
	se, cl, m := testMgr(t)
	h1, err := m.EnsureEngine(string(agents.CapSummarization), llmsim.NVLMText(), 8, hardware.GPUA100, 4, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := m.EnsureEngine(string(agents.CapSummarization), llmsim.NVLMText(), 4, hardware.GPUA100, 4, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatal("EnsureEngine created a duplicate")
	}
	if cl.FreeGPUs(hardware.GPUA100) != 8 {
		t.Fatalf("free GPUs = %d, want 8", cl.FreeGPUs(hardware.GPUA100))
	}
	se.Run()
}

func TestEngineForCapability(t *testing.T) {
	_, _, m := testMgr(t)
	m.EnsureEngine(string(agents.CapSummarization), llmsim.NVLMText(), 8, hardware.GPUA100, 0, 0, true)
	m.EnsureEngine(string(agents.CapEmbedding), llmsim.NVLMEmbed(), 2, hardware.GPUA100, 0, 0, true)
	h, ok := m.EngineForCapability(string(agents.CapEmbedding))
	if !ok || h.Spec.Name != "nvlm-embed" {
		t.Fatalf("lookup = %v, %v", h, ok)
	}
	if _, ok := m.EngineForCapability("nope"); ok {
		t.Fatal("found engine for unknown capability")
	}
}

func TestStats(t *testing.T) {
	se, _, m := testMgr(t)
	h, _ := m.EnsureEngine(string(agents.CapSummarization), llmsim.NVLMText(), 8, hardware.GPUA100, 0, 0, true)
	h.Engine.Submit(&llmsim.Request{ID: "r", PromptTokens: 100, OutputTokens: 100})
	s := m.Stats()
	es := s.Engines["nvlm-d-72b"]
	if es.GPUs != 8 || es.Active != 1 {
		t.Fatalf("engine stats = %+v", es)
	}
	if s.Cluster.FreeGPUs[hardware.GPUA100] != 8 {
		t.Fatalf("cluster snapshot free = %d", s.Cluster.FreeGPUs[hardware.GPUA100])
	}
	se.Run()
}

func trackedGraph(t *testing.T, cap string, work float64) *dag.Tracker {
	t.Helper()
	g := dag.New()
	g.MustAddNode(dag.Node{ID: "n", Capability: cap, Work: work})
	if err := g.Freeze(); err != nil {
		t.Fatal(err)
	}
	return dag.NewTracker(g)
}

func TestUpcomingDemandAggregation(t *testing.T) {
	_, _, m := testMgr(t)
	t1 := trackedGraph(t, "speech-to-text", 100)
	t2 := trackedGraph(t, "speech-to-text", 50)
	m.RegisterWorkflow(t1)
	m.RegisterWorkflow(t2)
	if got := m.UpcomingDemand()["speech-to-text"]; got != 150 {
		t.Fatalf("demand = %v, want 150", got)
	}
	m.UnregisterWorkflow(t1)
	if got := m.UpcomingDemand()["speech-to-text"]; got != 50 {
		t.Fatalf("demand after unregister = %v, want 50", got)
	}
}

func TestRebalanceShrinksIdleEngineWithoutDemand(t *testing.T) {
	se, cl, m := testMgr(t)
	m.EnsureEngine(string(agents.CapSummarization), llmsim.NVLMText(), 8, hardware.GPUA100, 4, 8, false)
	se.Run()
	// No registered workflows → no upcoming demand → idle engine shrinks
	// to min (the Whisper→Llama reallocation direction from §3.2).
	m.Rebalance()
	h, _ := m.Engine("nvlm-d-72b")
	if h.GPUs() != 4 {
		t.Fatalf("engine GPUs = %d after shrink, want 4", h.GPUs())
	}
	if cl.FreeGPUs(hardware.GPUA100) != 12 {
		t.Fatalf("free = %d, want 12", cl.FreeGPUs(hardware.GPUA100))
	}
	_, shrinks := m.Rebalances()
	if shrinks != 1 {
		t.Fatalf("shrinks = %d", shrinks)
	}
}

func TestRebalanceKeepsEngineWithUpcomingDemand(t *testing.T) {
	se, _, m := testMgr(t)
	m.EnsureEngine(string(agents.CapSummarization), llmsim.NVLMText(), 8, hardware.GPUA100, 4, 8, false)
	m.RegisterWorkflow(trackedGraph(t, string(agents.CapSummarization), 500))
	se.Run()
	m.Rebalance()
	h, _ := m.Engine("nvlm-d-72b")
	if h.GPUs() != 8 {
		t.Fatalf("engine shrunk to %d despite upcoming demand", h.GPUs())
	}
}

func TestRebalanceGrowsQueuedEngine(t *testing.T) {
	se, _, m := testMgr(t)
	spec := llmsim.NVLMText()
	h, _ := m.EnsureEngine(string(agents.CapSummarization), spec, 4, hardware.GPUA100, 4, 8, false)
	// Saturate: many concurrent requests exceed MaxBatch? Use queue depth:
	// submit enough KV-heavy requests to queue.
	for i := 0; i < 80; i++ {
		h.Engine.Submit(&llmsim.Request{ID: string(rune('a' + i%26)), PromptTokens: 4000, OutputTokens: 1000})
	}
	if h.Engine.QueueDepth() < growQueueThreshold {
		t.Fatalf("setup failed to queue requests (queue=%d)", h.Engine.QueueDepth())
	}
	m.Rebalance()
	if h.GPUs() != 5 {
		t.Fatalf("engine GPUs = %d after grow, want 5", h.GPUs())
	}
	grows, _ := m.Rebalances()
	if grows != 1 {
		t.Fatalf("grows = %d", grows)
	}
	se.Run()
}

func TestRebalancePinnedUntouched(t *testing.T) {
	se, _, m := testMgr(t)
	m.EnsureEngine(string(agents.CapSummarization), llmsim.NVLMText(), 8, hardware.GPUA100, 4, 8, true)
	se.Run()
	m.Rebalance()
	h, _ := m.Engine("nvlm-d-72b")
	if h.GPUs() != 8 {
		t.Fatalf("pinned engine resized to %d", h.GPUs())
	}
}

func TestRebalanceFreesGPUsForQueuedRequests(t *testing.T) {
	se, _, m := testMgr(t)
	// Engine holds 8; another task holds 8; a queued request for 4 waits.
	m.EnsureEngine(string(agents.CapSummarization), llmsim.NVLMText(), 8, hardware.GPUA100, 4, 8, false)
	var hold *cluster.GPUAlloc
	m.RequestGPUs(8, hardware.GPUA100, gpuGrant(func(a *cluster.GPUAlloc) { hold = a }), 0)
	se.Run()
	var got *cluster.GPUAlloc
	m.RequestGPUs(4, hardware.GPUA100, gpuGrant(func(a *cluster.GPUAlloc) { got = a }), 0)
	se.Run()
	if got != nil {
		t.Fatal("request granted before rebalance freed GPUs")
	}
	m.Rebalance() // idle engine shrinks 8→4, freeing 4
	se.Run()
	if got == nil {
		t.Fatal("rebalance did not unblock the queued request")
	}
	if hold == nil {
		t.Fatal("first request never granted")
	}
}

func TestTickerDrivenRebalance(t *testing.T) {
	se, _, m := testMgr(t)
	m.EnsureEngine(string(agents.CapSummarization), llmsim.NVLMText(), 8, hardware.GPUA100, 4, 8, false)
	m.EnableRebalancing(10)
	se.Schedule(25, func() { m.StopRebalancing() })
	se.Run()
	h, _ := m.Engine("nvlm-d-72b")
	if h.GPUs() != 4 {
		t.Fatalf("ticker never shrank the idle engine (GPUs=%d)", h.GPUs())
	}
}

func TestEngineRebuildAfterPreemption(t *testing.T) {
	se := sim.NewEngine()
	cl := cluster.New(se, hardware.DefaultCatalog())
	cl.AddVM("spot0", hardware.NDv4SKUName, true)
	cl.AddVM("od0", hardware.NDv4SKUName, false)
	m := New(se, cl)
	h, err := m.EnsureEngine(string(agents.CapSummarization), llmsim.NVLMText(), 8, hardware.GPUA100, 4, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	victim := h.alloc.GPUs()[0].ID[:5] // "spotN" or "od0/g"... find VM name
	_ = victim
	vmName := ""
	for _, vm := range cl.VMs() {
		if vm.GPUs()[0] == h.alloc.GPUs()[0] {
			vmName = vm.Name
		}
	}
	if vmName != "spot0" {
		t.Skip("engine placed on on-demand VM")
	}
	done := false
	h.Engine.Submit(&llmsim.Request{ID: "r", PromptTokens: 100, OutputTokens: 100,
		OnComplete: func(*llmsim.Request) { done = true }})
	se.Schedule(0.5, func() { cl.PreemptVM("spot0") })
	se.Run()
	if !done {
		t.Fatal("request lost across engine rebuild")
	}
	if h.GPUs() != 4 {
		t.Fatalf("rebuilt engine GPUs = %d, want min 4", h.GPUs())
	}
	if h.rebuilding {
		t.Fatal("engine stuck in rebuilding state")
	}
}

func TestOnRebalanceHookFiresOnlyOnResize(t *testing.T) {
	se, _, m := testMgr(t)
	fired := 0
	m.OnRebalance(func() { fired++ })
	// No engines: a pass resizes nothing and must not fire.
	m.Rebalance()
	if fired != 0 {
		t.Fatalf("no-op pass fired %d hooks", fired)
	}
	// An idle engine above its minimum with no registered demand shrinks.
	h, err := m.EnsureEngine(string(agents.CapSummarization), llmsim.NVLMText(), 4, hardware.GPUA100, 1, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	se.Run()
	m.Rebalance()
	if fired != 1 {
		t.Fatalf("shrinking pass fired %d hooks, want 1", fired)
	}
	if h.GPUs() != 1 {
		t.Fatalf("idle engine not shrunk: %d GPUs", h.GPUs())
	}
	// Nothing left to resize: quiet again.
	m.Rebalance()
	if fired != 1 {
		t.Fatalf("steady-state pass fired hooks (total %d)", fired)
	}
}
