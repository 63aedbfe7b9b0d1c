package cluster

import (
	"math"
	"testing"

	"repro/internal/hardware"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func testbed(t *testing.T) (*sim.Engine, *Cluster) {
	t.Helper()
	e := sim.NewEngine()
	c := New(e, hardware.DefaultCatalog())
	// The paper's §4 setup: two ND96amsr_A100_v4 VMs.
	c.AddVM("vm0", hardware.NDv4SKUName, false)
	c.AddVM("vm1", hardware.NDv4SKUName, false)
	return e, c
}

func TestAddVMShape(t *testing.T) {
	_, c := testbed(t)
	if got := c.TotalGPUs(hardware.GPUA100); got != 16 {
		t.Fatalf("total A100s = %d, want 16 (2 VMs × 8)", got)
	}
	if got := c.FreeCPUCores(); got != 192 {
		t.Fatalf("free cores = %d, want 192", got)
	}
}

func TestDuplicateVMNamePanics(t *testing.T) {
	_, c := testbed(t)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate VM name did not panic")
		}
	}()
	c.AddVM("vm0", hardware.NDv4SKUName, false)
}

func TestGPUAllocPacksOntoOneVM(t *testing.T) {
	_, c := testbed(t)
	a, err := c.AllocGPUs(8, hardware.GPUA100)
	if err != nil {
		t.Fatal(err)
	}
	vm := a.GPUs()[0].vm
	for _, g := range a.GPUs() {
		if g.vm != vm {
			t.Fatal("8-GPU grant spread across VMs despite one VM having 8 free")
		}
	}
	if c.FreeGPUs(hardware.GPUA100) != 8 {
		t.Fatalf("free = %d after 8-GPU grant, want 8", c.FreeGPUs(hardware.GPUA100))
	}
}

func TestGPUAllocSpillsAcrossVMs(t *testing.T) {
	_, c := testbed(t)
	a, err := c.AllocGPUs(12, hardware.GPUA100)
	if err != nil {
		t.Fatal(err)
	}
	if a.Count() != 12 {
		t.Fatalf("granted %d, want 12", a.Count())
	}
	if c.FreeGPUs(hardware.GPUA100) != 4 {
		t.Fatalf("free = %d, want 4", c.FreeGPUs(hardware.GPUA100))
	}
}

func TestGPUAllocInsufficient(t *testing.T) {
	_, c := testbed(t)
	if _, err := c.AllocGPUs(17, hardware.GPUA100); err == nil {
		t.Fatal("over-capacity grant succeeded")
	}
	if _, err := c.AllocGPUs(1, hardware.GPUH100); err == nil {
		t.Fatal("grant of absent GPU type succeeded")
	}
	if _, err := c.AllocGPUs(0, hardware.GPUA100); err == nil {
		t.Fatal("zero-GPU grant succeeded")
	}
}

func TestGPUReleaseIdempotent(t *testing.T) {
	_, c := testbed(t)
	a, _ := c.AllocGPUs(4, hardware.GPUA100)
	a.Release()
	a.Release()
	if c.FreeGPUs(hardware.GPUA100) != 16 {
		t.Fatalf("free = %d after double release, want 16", c.FreeGPUs(hardware.GPUA100))
	}
}

func TestIntensityDrivesUtilAndPower(t *testing.T) {
	e, c := testbed(t)
	a, _ := c.AllocGPUs(1, hardware.GPUA100)
	g := a.GPUs()[0]
	spec := g.Spec

	e.Schedule(10, func() { a.SetIntensity(1) })
	e.Schedule(20, func() { a.Release() })
	e.Run()

	if got := g.Util().Value(15); got != 1 {
		t.Errorf("util at t=15 = %v, want 1", got)
	}
	if got := g.Util().Value(25); got != 0 {
		t.Errorf("util at t=25 = %v, want 0 after release", got)
	}
	if got := g.Power().Value(15); got != spec.PeakWatts {
		t.Errorf("power at t=15 = %v, want peak %v", got, spec.PeakWatts)
	}
	if got := g.Power().Value(5); got != spec.IdleWatts {
		t.Errorf("power at t=5 = %v, want idle %v", got, spec.IdleWatts)
	}
	// Energy over [0,20]: 10s idle + 10s peak.
	want := spec.IdleWatts*10 + spec.PeakWatts*10
	got := g.Power().Integral(0, 20)
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("device energy = %v J, want %v", got, want)
	}
}

func TestIntensityClamped(t *testing.T) {
	_, c := testbed(t)
	a, _ := c.AllocGPUs(1, hardware.GPUA100)
	a.SetIntensity(7)
	if got := a.GPUs()[0].intensity; got != 1 {
		t.Fatalf("intensity = %v, want clamped to 1", got)
	}
	a.SetIntensity(-2)
	if got := a.GPUs()[0].intensity; got != 0 {
		t.Fatalf("intensity = %v, want clamped to 0", got)
	}
}

func TestSetIntensityAfterReleasePanics(t *testing.T) {
	_, c := testbed(t)
	a, _ := c.AllocGPUs(1, hardware.GPUA100)
	a.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("SetIntensity after release did not panic")
		}
	}()
	a.SetIntensity(0.5)
}

func TestCPUAllocAndUtil(t *testing.T) {
	e, c := testbed(t)
	a, err := c.AllocCPUs(96)
	if err != nil {
		t.Fatal(err)
	}
	a.SetIntensity(1)
	e.Schedule(50, func() { a.Release() })
	e.Run()

	vm := a.VM()
	if got := vm.CPUUtil().Value(25); got != 1 {
		t.Errorf("vm cpu util = %v during full-load alloc, want 1", got)
	}
	if got := vm.CPUUtil().Value(60); got != 0 {
		t.Errorf("vm cpu util = %v after release, want 0", got)
	}
	// Cluster-wide CPU util averages over both VMs: 96 of 192 cores busy.
	if got := c.CPUUtilSeries().Value(25); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("cluster cpu util = %v, want 0.5", got)
	}
}

func TestCPUAllocTooLarge(t *testing.T) {
	_, c := testbed(t)
	if _, err := c.AllocCPUs(97); err == nil {
		t.Fatal("alloc larger than any single VM succeeded")
	}
	if got := c.MaxFreeCPUCores(); got != 96 {
		t.Fatalf("max free cores = %d, want 96", got)
	}
}

func TestCPUAllocSpreads(t *testing.T) {
	_, c := testbed(t)
	a1, _ := c.AllocCPUs(50)
	a2, _ := c.AllocCPUs(50)
	if a1.VM() == a2.VM() {
		t.Fatal("second 50-core alloc landed on the loaded VM; want spreading")
	}
}

func TestPartialCPUIntensity(t *testing.T) {
	_, c := testbed(t)
	a, _ := c.AllocCPUs(48) // half the VM
	a.SetIntensity(0.5)
	// Load = 48 × 0.5 = 24 of 96 cores → 0.25 VM util.
	if got := a.VM().CPUUtil().Last(); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("vm util = %v, want 0.25", got)
	}
}

func TestGPUEnergyIdleBaseline(t *testing.T) {
	e, c := testbed(t)
	e.Schedule(100, func() {})
	e.Run()
	// 16 idle A100s for 100s.
	idle := hardware.DefaultCatalog().MustGPU(hardware.GPUA100).IdleWatts
	want := 16 * idle * 100
	got := c.GPUEnergyJoules(0, 100)
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("idle energy = %v J, want %v", got, want)
	}
	// Sanity: Wh conversion matches Table 2's unit.
	if wh := telemetry.JoulesToWh(got); math.Abs(wh-want/3600) > 1e-9 {
		t.Fatalf("Wh conversion broken: %v", wh)
	}
}

func TestRentalCost(t *testing.T) {
	_, c := testbed(t)
	sku := hardware.DefaultCatalog().MustVM(hardware.NDv4SKUName)
	got := c.RentalCostUSD(0, 3600)
	want := 2 * sku.HourlyUSD
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("1h rental = $%v, want $%v", got, want)
	}
}

func TestSpotRentalDiscount(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, hardware.DefaultCatalog())
	c.AddVM("spot0", hardware.NDv4SKUName, true)
	sku := hardware.DefaultCatalog().MustVM(hardware.NDv4SKUName)
	got := c.RentalCostUSD(0, 3600)
	want := sku.HourlyUSD * (1 - sku.SpotDiscount)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("spot rental = $%v, want $%v", got, want)
	}
}

func TestOnReleaseHook(t *testing.T) {
	_, c := testbed(t)
	calls := 0
	c.OnRelease(func() { calls++ })
	a, _ := c.AllocGPUs(2, hardware.GPUA100)
	a.Release()
	if calls != 1 {
		t.Fatalf("release hook calls = %d, want 1", calls)
	}
	b, _ := c.AllocCPUs(4)
	b.Release()
	if calls != 2 {
		t.Fatalf("release hook calls = %d, want 2", calls)
	}
}

func TestSnapshot(t *testing.T) {
	_, c := testbed(t)
	a, _ := c.AllocGPUs(8, hardware.GPUA100)
	a.SetIntensity(1)
	b, _ := c.AllocCPUs(96)
	b.SetIntensity(0.5)

	s := c.Snapshot()
	if s.FreeGPUs[hardware.GPUA100] != 8 {
		t.Errorf("snapshot free GPUs = %d, want 8", s.FreeGPUs[hardware.GPUA100])
	}
	if s.TotalGPUs[hardware.GPUA100] != 16 {
		t.Errorf("snapshot total GPUs = %d, want 16", s.TotalGPUs[hardware.GPUA100])
	}
	if s.FreeCPUCores != 96 {
		t.Errorf("snapshot free cores = %d, want 96", s.FreeCPUCores)
	}
	if math.Abs(s.MeanGPUUtil-0.5) > 1e-9 {
		t.Errorf("mean gpu util = %v, want 0.5 (8 of 16 at full)", s.MeanGPUUtil)
	}
	if math.Abs(s.MeanCPUUtil-0.25) > 1e-9 {
		t.Errorf("mean cpu util = %v, want 0.25 (48 of 192 effective)", s.MeanCPUUtil)
	}
}

func TestPreemptReleasesAndNotifies(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, hardware.DefaultCatalog())
	c.AddVM("spot0", hardware.NDv4SKUName, true)
	c.AddVM("od0", hardware.NDv4SKUName, false)

	gpuPreempted, cpuPreempted := false, false
	a, _ := c.AllocGPUs(8, hardware.GPUA100) // lands on one VM
	a.OnPreempt = func() { gpuPreempted = true }
	b, _ := c.AllocCPUs(10)
	b.OnPreempt = func() { cpuPreempted = true }

	var hookVM *VM
	c.OnPreempt(func(vm *VM) { hookVM = vm })

	// Find which VM got the GPU grant; preempt that one if spot, else skip.
	victim := a.GPUs()[0].vm
	if !victim.Spot {
		t.Skip("grant landed on on-demand VM; packing picked od0")
	}
	c.PreemptVM(victim.Name)

	if !a.Released() {
		t.Error("GPU allocation not force-released on preemption")
	}
	if !gpuPreempted {
		t.Error("GPU OnPreempt not fired")
	}
	if b.VM() == victim {
		if !cpuPreempted || !b.Released() {
			t.Error("CPU allocation on victim not preempted")
		}
	}
	if hookVM != victim {
		t.Error("cluster preempt hook not fired with victim VM")
	}
	if victim.FreeGPUs() != 0 || victim.CPUCoresFree() != 0 {
		t.Error("preempted VM still offers capacity")
	}
	// Remaining capacity only from the surviving VM.
	if got := c.FreeGPUs(hardware.GPUA100); got != 8 {
		t.Errorf("free GPUs after preemption = %d, want 8", got)
	}
}

func TestPreemptOnDemandPanics(t *testing.T) {
	_, c := testbed(t)
	defer func() {
		if recover() == nil {
			t.Fatal("preempting on-demand VM did not panic")
		}
	}()
	c.PreemptVM("vm0")
}

func TestPreemptedGPUDrawsNoPower(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, hardware.DefaultCatalog())
	vm := c.AddVM("spot0", hardware.NDv4SKUName, true)
	e.Schedule(10, func() { c.PreemptVM("spot0") })
	e.Schedule(20, func() {})
	e.Run()
	g := vm.GPUs()[0]
	if got := g.Power().Value(15); got != 0 {
		t.Fatalf("preempted GPU draws %v W, want 0", got)
	}
	idle := g.Spec.IdleWatts
	want := idle * 10 // only the first 10s
	if got := g.Power().Integral(0, 20); math.Abs(got-want) > 1e-6 {
		t.Fatalf("energy = %v, want %v", got, want)
	}
}

// Conservation property: random alloc/release sequences never let free+used
// diverge from total, and free is never negative.
func TestPropertyAllocationConservation(t *testing.T) {
	_, c := testbed(t)
	var live []*GPUAlloc
	seq := []int{3, 5, 2, 8, 1, 4, 6, 2, 7, 3}
	for i, n := range seq {
		if a, err := c.AllocGPUs(n, hardware.GPUA100); err == nil {
			live = append(live, a)
		}
		if i%2 == 1 && len(live) > 0 {
			live[0].Release()
			live = live[1:]
		}
		used := 0
		for _, a := range live {
			used += a.Count()
		}
		free := c.FreeGPUs(hardware.GPUA100)
		if free < 0 || free+used != 16 {
			t.Fatalf("step %d: free %d + used %d != 16", i, free, used)
		}
	}
}

// TestGenerationCounters: every state change must move Gen (so memoized
// snapshots invalidate), while CapacityGen moves only on fleet changes (the
// optimistic plan-commit validity check).
func TestGenerationCounters(t *testing.T) {
	_, c := testbed(t)
	g0, cg0 := c.Gen(), c.CapacityGen()

	a, _ := c.AllocGPUs(2, hardware.GPUA100)
	if c.Gen() == g0 {
		t.Error("AllocGPUs did not move Gen")
	}
	g1 := c.Gen()
	a.SetIntensity(0.7)
	if c.Gen() == g1 {
		t.Error("SetIntensity did not move Gen")
	}
	g2 := c.Gen()
	b, _ := c.AllocCPUs(8)
	if c.Gen() == g2 {
		t.Error("AllocCPUs did not move Gen")
	}
	g3 := c.Gen()
	b.Release()
	a.Release()
	if c.Gen() == g3 {
		t.Error("Release did not move Gen")
	}
	if c.CapacityGen() != cg0 {
		t.Errorf("capacity generation moved on alloc/free (%d → %d): plans would conflict needlessly",
			cg0, c.CapacityGen())
	}

	c.AddVM("vm2", hardware.NDv4SKUName, true)
	if c.CapacityGen() == cg0 {
		t.Error("AddVM did not move CapacityGen")
	}
	cg1 := c.CapacityGen()
	c.PreemptVM("vm2")
	if c.CapacityGen() == cg1 {
		t.Error("PreemptVM did not move CapacityGen")
	}
	cg2 := c.CapacityGen()
	if err := c.VMs()[0].SetCPUCapacity(48); err != nil {
		t.Fatal(err)
	}
	if c.CapacityGen() == cg2 {
		t.Error("SetCPUCapacity did not move CapacityGen")
	}
}

// TestSnapshotMemoization: repeat snapshots between state changes must return
// identical content (the maps may be shared — callers treat snapshots as
// immutable), refresh Time, and rebuild after any mutation.
func TestSnapshotMemoization(t *testing.T) {
	e, c := testbed(t)
	s1 := c.Snapshot()
	e.After(2, func() {})
	e.Run()
	s2 := c.Snapshot()
	if s2.Time != 2 {
		t.Errorf("memoized snapshot Time = %v, want refreshed 2", s2.Time)
	}
	if s2.FreeGPUs[hardware.GPUA100] != s1.FreeGPUs[hardware.GPUA100] ||
		s2.FreeCPUCores != s1.FreeCPUCores {
		t.Errorf("unchanged cluster, changed snapshot: %+v vs %+v", s1, s2)
	}

	a, _ := c.AllocGPUs(3, hardware.GPUA100)
	s3 := c.Snapshot()
	if s3.FreeGPUs[hardware.GPUA100] != 13 {
		t.Errorf("post-alloc snapshot free GPUs = %d, want 13", s3.FreeGPUs[hardware.GPUA100])
	}
	// The earlier snapshot must be immutable: the rebuild may not have
	// touched the maps a concurrent off-loop reader could still hold.
	if s1.FreeGPUs[hardware.GPUA100] != 16 {
		t.Errorf("captured snapshot mutated by later state change: free = %d, want 16",
			s1.FreeGPUs[hardware.GPUA100])
	}
	a.Release()
	if got := c.Snapshot().FreeGPUs[hardware.GPUA100]; got != 16 {
		t.Errorf("post-release snapshot free GPUs = %d, want 16", got)
	}
}

func TestOnCapacityChangeHookFires(t *testing.T) {
	se := sim.NewEngine()
	c := New(se, hardware.DefaultCatalog())
	fired := 0
	c.OnCapacityChange(func() { fired++ })
	c.AddVM("vm0", hardware.NDv4SKUName, true)
	if fired != 1 {
		t.Fatalf("AddVM fired %d hooks, want 1", fired)
	}
	gen := c.CapacityGen()
	c.PreemptVM("vm0")
	if fired != 2 {
		t.Fatalf("PreemptVM fired %d hooks total, want 2", fired)
	}
	if c.CapacityGen() != gen+1 {
		t.Fatalf("capacity gen = %d, want %d", c.CapacityGen(), gen+1)
	}
	// Allocation churn must not fire capacity hooks.
	c.AddVM("vm1", hardware.NDv4SKUName, false)
	before := fired
	a, err := c.AllocGPUs(2, hardware.GPUA100)
	if err != nil {
		t.Fatal(err)
	}
	a.SetIntensity(0.5)
	a.Release()
	if fired != before {
		t.Fatalf("alloc/free fired capacity hooks (%d -> %d)", before, fired)
	}
}

// TestGrantRecordsAreNeverReused: allocations are cut from slabs, not pooled —
// a holder that kept a grant past Release still reads Released() == true and
// its own ID however many grants follow, and two live grants never share a
// record or a device list.
func TestGrantRecordsAreNeverReused(t *testing.T) {
	_, c := testbed(t)
	firstCPU, err := c.AllocCPUs(4)
	if err != nil {
		t.Fatal(err)
	}
	firstGPU, err := c.AllocGPUs(3, hardware.GPUA100)
	if err != nil {
		t.Fatal(err)
	}
	firstCPU.Release()
	firstGPU.Release()
	seenCPU := map[*CPUAlloc]bool{firstCPU: true}
	seenGPU := map[*GPUAlloc]bool{firstGPU: true}
	lastID := firstGPU.ID
	for i := 0; i < 3*allocSlabSize; i++ {
		a, err := c.AllocCPUs(1 + i%5)
		if err != nil {
			t.Fatal(err)
		}
		g, err := c.AllocGPUs(1+i%4, hardware.GPUA100)
		if err != nil {
			t.Fatal(err)
		}
		if seenCPU[a] || seenGPU[g] {
			t.Fatalf("grant %d reuses a record", i)
		}
		seenCPU[a], seenGPU[g] = true, true
		if a.ID != lastID+1 || g.ID != lastID+2 {
			t.Fatalf("grant %d has IDs %d and %d after %d", i, a.ID, g.ID, lastID)
		}
		lastID = g.ID
		if a.Released() || g.Released() || a.Cores() != 1+i%5 || g.Count() != 1+i%4 {
			t.Fatalf("grant %d is not fresh: %+v %+v", i, a, g)
		}
		// Hold one grant across the next iteration's: the device lists are
		// cut from one block and must not overlap.
		other, err := c.AllocGPUs(2, hardware.GPUA100)
		if err != nil {
			t.Fatal(err)
		}
		lastID = other.ID
		for _, d := range g.GPUs() {
			for _, o := range other.GPUs() {
				if d == o {
					t.Fatalf("grant %d shares device %s with a live grant", i, d.ID)
				}
			}
		}
		if cap(g.GPUs()) != g.Count() {
			t.Fatalf("device list has capacity %d for %d devices: an append would write into the next grant's", cap(g.GPUs()), g.Count())
		}
		a.Release()
		g.Release()
		other.Release()
	}
	if !firstCPU.Released() || !firstGPU.Released() || firstCPU.ID != 1 || firstGPU.ID != 2 || firstGPU.Count() != 3 {
		t.Fatalf("a released grant changed under its holder: %+v %+v", firstCPU, firstGPU)
	}
	if c.FreeGPUs(hardware.GPUA100) != 16 || c.FreeCPUCores() != 192 {
		t.Fatal("capacity leaked")
	}
}
