// Package cluster simulates the hardware pool the paper's evaluation runs
// on: VMs holding GPUs and CPU cores, with per-device utilization tracking,
// power-model-driven energy accounting, rental-cost accounting, and spot-VM
// preemption. It is the substrate both the baseline (fixed allocations) and
// Murakkab (dynamic allocations) execute against.
//
// The cluster is passive: it grants or refuses resources synchronously and
// records what devices did over simulated time. Queueing, scaling policy and
// placement strategy live one layer up in internal/clustermgr.
package cluster

import (
	"fmt"
	"sort"

	"repro/internal/hardware"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// GPU is one simulated accelerator device.
type GPU struct {
	ID        string
	Spec      hardware.GPUSpec
	vm        *VM
	allocated bool
	intensity float64
	// util records the device's compute intensity over time (0 when idle or
	// unallocated); power records instantaneous watts. Both are step series
	// so energy is an exact integral, not a sampled approximation.
	util  *telemetry.StepSeries
	power *telemetry.StepSeries
}

// Util returns the device's utilization series (0..1).
func (g *GPU) Util() *telemetry.StepSeries { return g.util }

// Power returns the device's power series in watts.
func (g *GPU) Power() *telemetry.StepSeries { return g.power }

// setUtil records the device's utilization at now, keeping the cluster-wide
// utilization-sum aggregate in sync.
func (g *GPU) setUtil(now, u float64) {
	g.vm.cluster.gpuUtilSumAgg.AddDelta(now, u-g.util.Last())
	g.util.Set(now, u)
}

// setPower records the device's power draw at now, keeping the cluster-wide
// power aggregate in sync.
func (g *GPU) setPower(now, w float64) {
	g.vm.cluster.gpuPowerAgg.AddDelta(now, w-g.power.Last())
	g.power.Set(now, w)
}

// VM is one rented machine: a CPU-core pool plus zero or more GPUs.
type VM struct {
	Name string
	SKU  hardware.VMSKU
	// Spot marks the VM as preemptible (rented at SKU.SpotDiscount).
	Spot bool

	cluster  *Cluster
	gpus     []*GPU
	cpuSpec  hardware.CPUSpec
	cpuTotal int
	cpuInUse int
	cpuUtil  *telemetry.StepSeries // fraction of cores busy, weighted by intensity
	cpuPower *telemetry.StepSeries
	cpuLoad  float64 // Σ cores×intensity across live CPU allocations
	// sampledLoad is the load value most recently folded into the cluster's
	// load-sum aggregate (the delta base for the next sample).
	sampledLoad float64
	preempted   bool
}

// GPUs returns the VM's devices.
func (v *VM) GPUs() []*GPU { return v.gpus }

// CPUCoresFree returns unallocated cores.
func (v *VM) CPUCoresFree() int {
	if v.preempted {
		return 0
	}
	return v.cpuTotal - v.cpuInUse
}

// FreeGPUs returns the number of unallocated GPUs.
func (v *VM) FreeGPUs() int {
	if v.preempted {
		return 0
	}
	n := 0
	for _, g := range v.gpus {
		if !g.allocated {
			n++
		}
	}
	return n
}

// CPUUtil returns the VM's CPU utilization series (0..1 across all cores).
func (v *VM) CPUUtil() *telemetry.StepSeries { return v.cpuUtil }

// Cluster is a set of VMs sharing a simulation clock.
type Cluster struct {
	engine  *sim.Engine
	catalog *hardware.Catalog
	vms     []*VM
	// releaseHooks run whenever capacity is freed (release or resize); the
	// cluster manager uses them to retry queued requests.
	releaseHooks []func()
	// preemptHooks run with the VM that was just preempted.
	preemptHooks []func(*VM)
	// capacityHooks run whenever the capacity class changes (AddVM,
	// PreemptVM, SetCPUCapacity) — the reconfiguration controller's trigger.
	// They fire mid-mutation, so hooks must only schedule work (sim.Defer),
	// never read cluster state synchronously.
	capacityHooks []func()
	nextAllocID   int
	liveGPU       map[int]*GPUAlloc
	liveCPU       map[int]*CPUAlloc
	// gpuSlab, cpuSlab and devSlab are the blocks the next grants are cut
	// from (on first use, so an idle cluster carries none) — one heap
	// allocation per block instead of one per grant, as sim.Engine cuts its
	// events. A record is never handed out twice: a holder that kept an
	// allocation past Release still reads released == true, whatever was
	// granted since. The GC reclaims a block once no grant in it is
	// referenced.
	gpuSlab []GPUAlloc
	cpuSlab []CPUAlloc
	devSlab []*GPU

	// Cluster-wide running aggregates, updated O(1) at every device sample so
	// report finalization reads them directly instead of re-merging every
	// per-device series per execution (§3.3's amortization applied to
	// telemetry). gpuPowerAgg/cpuPowerAgg total watts; gpuUtilSumAgg is the
	// unweighted Σ of per-GPU intensities; cpuLoadSumAgg is Σ cores×intensity
	// across VMs (the core-weighted load). They live under tiered retention:
	// AdvanceEpoch collapses history behind the watermark into rollup
	// buckets, so full-history reads (daemon stats, long-lived dashboards)
	// stay answerable after per-device points are dropped.
	gpuPowerAgg   *telemetry.RetainedSeries
	cpuPowerAgg   *telemetry.RetainedSeries
	gpuUtilSumAgg *telemetry.RetainedSeries
	cpuLoadSumAgg *telemetry.RetainedSeries

	// watermarkS is the telemetry retention watermark: per-device series
	// keep full-resolution change points only at or after it. Readers may no
	// longer assume history back to t=0 — window queries must start at or
	// after the watermark (report.Finalize fails loudly otherwise), and
	// full-history aggregate reads go through the rollup buckets.
	watermarkS float64
	epoch      int

	// gen counts state changes (alloc, free, intensity, preemption, resize,
	// epoch advance): Snapshot memoizes on it, and off-loop readers use it to
	// detect that a captured snapshot is stale. capacityGen moves only when
	// the capacity class itself changes (VM added, preempted or resized) —
	// the only snapshot content the optimizer's plan consumes — so it is the
	// validity check for optimistic plan commit.
	gen         uint64
	capacityGen uint64
	// snapCache memoizes the last Snapshot per gen (metrics.go); snapValid
	// distinguishes gen 0 from "never built".
	snapCache Snapshot
	snapGen   uint64
	snapValid bool
}

// New creates an empty cluster on the given engine and catalog.
func New(engine *sim.Engine, catalog *hardware.Catalog) *Cluster {
	if engine == nil || catalog == nil {
		panic("cluster: nil engine or catalog")
	}
	return &Cluster{
		engine:        engine,
		catalog:       catalog,
		liveGPU:       make(map[int]*GPUAlloc),
		liveCPU:       make(map[int]*CPUAlloc),
		gpuPowerAgg:   telemetry.NewRetained(0),
		cpuPowerAgg:   telemetry.NewRetained(0),
		gpuUtilSumAgg: telemetry.NewRetained(0),
		cpuLoadSumAgg: telemetry.NewRetained(0),
	}
}

// Engine returns the simulation engine the cluster runs on.
func (c *Cluster) Engine() *sim.Engine { return c.engine }

// Gen returns the cluster's state generation: it moves on every allocation,
// release, intensity change, preemption, resize and epoch advance. Two equal
// generations bracket a window in which Snapshot content cannot have changed.
func (c *Cluster) Gen() uint64 { return c.gen }

// CapacityGen returns the capacity-class generation, bumped only when the
// fleet itself changes (AddVM, PreemptVM, SetCPUCapacity). Plans are a pure
// function of the capacity class (plus profile/library generations), so an
// optimistically-searched plan commits cleanly iff CapacityGen is unchanged.
func (c *Cluster) CapacityGen() uint64 { return c.capacityGen }

// bump marks a cluster state change (invalidates the memoized snapshot).
func (c *Cluster) bump() { c.gen++ }

// bumpCapacity marks a capacity-class change (also a state change) and fires
// the capacity hooks.
func (c *Cluster) bumpCapacity() {
	c.gen++
	c.capacityGen++
	for _, fn := range c.capacityHooks {
		fn()
	}
}

// Watermark returns the telemetry retention watermark in simulated seconds:
// per-device series hold full-resolution history only at or after it (0
// until AdvanceEpoch is first called, i.e. full history).
func (c *Cluster) Watermark() float64 { return c.watermarkS }

// Epoch returns how many times AdvanceEpoch has compacted telemetry.
func (c *Cluster) Epoch() int { return c.epoch }

// AdvanceEpoch moves the retention watermark to t (clamped to [current
// watermark, now]) and compacts every per-GPU/VM series plus the four
// cluster-wide aggregates coherently: the aggregates roll the dropped epoch
// into exact-integral rollup buckets first, then everyone drops change
// points behind the watermark. Window queries at or after the watermark
// remain bit-identical to the uncompacted cluster; reads reaching behind it
// must use the aggregate (rollup-backed) paths. Returns the number of
// change points dropped.
//
// Like every Cluster method, AdvanceEpoch must run on the goroutine driving
// the simulation engine.
func (c *Cluster) AdvanceEpoch(t float64) int {
	if now := c.engine.Now().Seconds(); t > now {
		t = now
	}
	if t <= c.watermarkS {
		return 0
	}
	dropped := 0
	for _, vm := range c.vms {
		dropped += vm.cpuUtil.CompactBefore(t)
		dropped += vm.cpuPower.CompactBefore(t)
		for _, g := range vm.gpus {
			dropped += g.util.CompactBefore(t)
			dropped += g.power.CompactBefore(t)
		}
	}
	dropped += c.gpuPowerAgg.CompactBefore(t)
	dropped += c.cpuPowerAgg.CompactBefore(t)
	dropped += c.gpuUtilSumAgg.CompactBefore(t)
	dropped += c.cpuLoadSumAgg.CompactBefore(t)
	c.watermarkS = t
	c.epoch++
	c.bump()
	return dropped
}

// TelemetryFootprint is the cluster's retained-telemetry accounting: live
// change points across every per-device series and aggregate, the rollup
// buckets retained behind the watermark, and the resulting heap bytes
// (3 float64 slots per change point, 5 per bucket).
type TelemetryFootprint struct {
	Points        int
	RollupBuckets int
	Bytes         int
}

// TelemetryFootprint sums retained points/buckets across all series.
func (c *Cluster) TelemetryFootprint() TelemetryFootprint {
	var fp TelemetryFootprint
	for _, vm := range c.vms {
		fp.Points += vm.cpuUtil.Len() + vm.cpuPower.Len()
		for _, g := range vm.gpus {
			fp.Points += g.util.Len() + g.power.Len()
		}
	}
	for _, agg := range []*telemetry.RetainedSeries{
		c.gpuPowerAgg, c.cpuPowerAgg, c.gpuUtilSumAgg, c.cpuLoadSumAgg,
	} {
		fp.Points += agg.Len()
		fp.RollupBuckets += len(agg.Rollups())
	}
	fp.Bytes = fp.Points*3*8 + fp.RollupBuckets*5*8
	return fp
}

// Catalog returns the hardware catalog.
func (c *Cluster) Catalog() *hardware.Catalog { return c.catalog }

// AddVM provisions a VM of the named SKU. The VM's devices begin idle,
// drawing idle power (the machine is rented and powered whether or not work
// runs on it — exactly why the paper's baseline wastes energy).
func (c *Cluster) AddVM(name, skuName string, spot bool) *VM {
	sku := c.catalog.MustVM(skuName)
	for _, existing := range c.vms {
		if existing.Name == name {
			panic(fmt.Sprintf("cluster: duplicate VM name %q", name))
		}
	}
	vm := &VM{
		Name:     name,
		SKU:      sku,
		Spot:     spot,
		cluster:  c,
		cpuSpec:  c.catalog.MustCPU(sku.CPU),
		cpuTotal: sku.CPUCores,
		cpuUtil:  telemetry.NewStepSeries(0),
		cpuPower: telemetry.NewStepSeries(0),
	}
	for i := 0; i < sku.GPUCount; i++ {
		spec := c.catalog.MustGPU(sku.GPU)
		vm.gpus = append(vm.gpus, &GPU{
			ID:    fmt.Sprintf("%s/gpu%d", name, i),
			Spec:  spec,
			vm:    vm,
			util:  telemetry.NewStepSeries(0),
			power: telemetry.NewStepSeries(0),
		})
	}
	c.vms = append(c.vms, vm)
	c.bumpCapacity()
	// Record the idle draw through the sampling helpers so the cluster-wide
	// aggregates pick it up.
	now := c.engine.Now().Seconds()
	vm.sampleCPU(now, 0, 0, hardware.CPUPower(vm.cpuSpec, vm.cpuTotal, 0))
	for _, g := range vm.gpus {
		g.setPower(now, g.Spec.IdleWatts)
	}
	return vm
}

// VMs returns the cluster's VMs in provisioning order.
func (c *Cluster) VMs() []*VM { return c.vms }

// OnRelease registers a hook invoked whenever resources are freed.
func (c *Cluster) OnRelease(fn func()) { c.releaseHooks = append(c.releaseHooks, fn) }

// OnPreempt registers a hook invoked when a VM is preempted.
func (c *Cluster) OnPreempt(fn func(*VM)) { c.preemptHooks = append(c.preemptHooks, fn) }

// OnCapacityChange registers a hook invoked whenever the capacity class
// changes (CapacityGen moves: AddVM, PreemptVM, SetCPUCapacity). The hook
// runs in the middle of the mutation, before dependent releases and preempt
// callbacks — it must only schedule follow-up work (e.g. sim.Engine.Defer),
// never inspect cluster state synchronously.
func (c *Cluster) OnCapacityChange(fn func()) { c.capacityHooks = append(c.capacityHooks, fn) }

// allocSlabSize is the most grant records one allocation block holds.
const allocSlabSize = 64

// slabBlock sizes the next block: as many records as the cluster has granted
// so far, between 8 and allocSlabSize. A testbed built for one job cuts a few
// small blocks; a shard's cluster is at one allocation per 64 grants after its
// first few jobs.
func (c *Cluster) slabBlock() int { return min(max(c.nextAllocID, 8), allocSlabSize) }

// cutRecord takes the next record off a slab, starting a new block first when
// the current one is used up.
func cutRecord[T any](slab *[]T, block int) *T {
	if len(*slab) == 0 {
		*slab = make([]T, block)
	}
	r := &(*slab)[0]
	*slab = (*slab)[1:]
	return r
}

// cutDevices returns an empty device list with room for exactly n GPUs.
func (c *Cluster) cutDevices(n int) []*GPU {
	if len(c.devSlab) < n {
		c.devSlab = make([]*GPU, max(n, c.slabBlock()))
	}
	devs := c.devSlab[:0:n]
	c.devSlab = c.devSlab[n:]
	return devs
}

func (c *Cluster) notifyRelease() {
	for _, fn := range c.releaseHooks {
		fn()
	}
}

// GPUAlloc is a grant of one or more GPUs, all of one type (possibly spread
// across VMs). Intensity models how hard the devices compute, driving both
// the utilization trace and the power model.
type GPUAlloc struct {
	ID       int
	cluster  *Cluster
	gpus     []*GPU
	released bool
	// OnPreempt, if set, is invoked when a VM holding any of these GPUs is
	// preempted; the allocation is already released when it runs.
	OnPreempt func()
}

// GPUs returns the granted devices.
func (a *GPUAlloc) GPUs() []*GPU { return a.gpus }

// Count returns the number of granted devices.
func (a *GPUAlloc) Count() int { return len(a.gpus) }

// Released reports whether the allocation has ended.
func (a *GPUAlloc) Released() bool { return a.released }

// SetIntensity sets the compute intensity (clamped to [0,1]) on all granted
// devices from the current simulated time onward.
func (a *GPUAlloc) SetIntensity(x float64) {
	if a.released {
		panic("cluster: SetIntensity on released GPU allocation")
	}
	if x < 0 {
		x = 0
	}
	if x > 1 {
		x = 1
	}
	now := a.cluster.engine.Now().Seconds()
	for _, g := range a.gpus {
		g.intensity = x
		g.setUtil(now, x)
		g.setPower(now, hardware.GPUPower(g.Spec, x))
	}
	a.cluster.bump()
}

// Release returns the devices to the pool. Idempotent.
func (a *GPUAlloc) Release() {
	if a.released {
		return
	}
	a.released = true
	delete(a.cluster.liveGPU, a.ID)
	now := a.cluster.engine.Now().Seconds()
	for _, g := range a.gpus {
		g.allocated = false
		g.intensity = 0
		g.setUtil(now, 0)
		if !g.vm.preempted {
			g.setPower(now, g.Spec.IdleWatts)
		}
	}
	a.cluster.bump()
	a.cluster.notifyRelease()
}

// AllocGPUs grants n GPUs of type t, preferring to pack them onto as few VMs
// as possible (packing reduces fragmentation, one of the paper's §1
// inefficiencies). Returns an error if fewer than n are free.
func (c *Cluster) AllocGPUs(n int, t hardware.GPUType) (*GPUAlloc, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: non-positive GPU count %d", n)
	}
	free := c.FreeGPUs(t)
	if free < n {
		return nil, fmt.Errorf("cluster: want %d %s GPUs, %d free", n, t, free)
	}
	// Best-fit: VMs with the fewest (but sufficient-for-progress) free GPUs
	// first is complex; we use most-free-first to co-locate multi-GPU grants,
	// falling back to spreading.
	remaining := n
	grant := c.cutDevices(n)
	for remaining > 0 {
		vm := c.vmWithMostFree(t)
		if vm == nil {
			break
		}
		for _, g := range vm.gpus {
			if remaining == 0 {
				break
			}
			if !g.allocated && g.Spec.Type == t {
				g.allocated = true
				grant = append(grant, g)
				remaining--
			}
		}
	}
	if remaining > 0 {
		// Roll back (cannot happen if FreeGPUs was honest, but keep the
		// invariant airtight).
		for _, g := range grant {
			g.allocated = false
		}
		return nil, fmt.Errorf("cluster: allocation race for %d %s GPUs", n, t)
	}
	c.nextAllocID++
	a := cutRecord(&c.gpuSlab, c.slabBlock())
	*a = GPUAlloc{ID: c.nextAllocID, cluster: c, gpus: grant}
	c.liveGPU[a.ID] = a
	c.bump()
	a.SetIntensity(0)
	return a, nil
}

func (c *Cluster) vmWithMostFree(t hardware.GPUType) *VM {
	var best *VM
	bestFree := 0
	for _, vm := range c.vms {
		if vm.preempted || vm.SKU.GPUCount == 0 || vm.SKU.GPU != t {
			continue
		}
		if f := vm.FreeGPUs(); f > bestFree {
			best, bestFree = vm, f
		}
	}
	return best
}

// FreeGPUs counts unallocated GPUs of the given type cluster-wide.
func (c *Cluster) FreeGPUs(t hardware.GPUType) int {
	n := 0
	for _, vm := range c.vms {
		if vm.preempted {
			continue
		}
		for _, g := range vm.gpus {
			if !g.allocated && g.Spec.Type == t {
				n++
			}
		}
	}
	return n
}

// TotalGPUs counts all GPUs of the given type, allocated or not.
func (c *Cluster) TotalGPUs(t hardware.GPUType) int {
	n := 0
	for _, vm := range c.vms {
		for _, g := range vm.gpus {
			if g.Spec.Type == t {
				n++
			}
		}
	}
	return n
}

// CPUAlloc is a grant of CPU cores on a single VM.
type CPUAlloc struct {
	ID        int
	vm        *VM
	cores     int
	intensity float64
	released  bool
	OnPreempt func()
}

// Cores returns the granted core count.
func (a *CPUAlloc) Cores() int { return a.cores }

// VM returns the host VM.
func (a *CPUAlloc) VM() *VM { return a.vm }

// Released reports whether the allocation has ended.
func (a *CPUAlloc) Released() bool { return a.released }

// SetIntensity sets per-core compute intensity in [0,1] from now onward.
func (a *CPUAlloc) SetIntensity(x float64) {
	if a.released {
		panic("cluster: SetIntensity on released CPU allocation")
	}
	if x < 0 {
		x = 0
	}
	if x > 1 {
		x = 1
	}
	a.vm.cpuLoad += float64(a.cores) * (x - a.intensity)
	a.intensity = x
	a.vm.refreshCPUSeries()
	a.vm.cluster.bump()
}

// Release returns the cores. Idempotent.
func (a *CPUAlloc) Release() {
	if a.released {
		return
	}
	a.released = true
	delete(a.vm.cluster.liveCPU, a.ID)
	if !a.vm.preempted {
		a.vm.cpuInUse -= a.cores
		a.vm.cpuLoad -= float64(a.cores) * a.intensity
		if a.vm.cpuInUse < 0 {
			panic("cluster: CPU in-use below zero")
		}
		a.vm.refreshCPUSeries()
	}
	a.vm.cluster.bump()
	a.vm.cluster.notifyRelease()
}

func (v *VM) refreshCPUSeries() {
	now := v.cluster.engine.Now().Seconds()
	util := 0.0
	if v.cpuTotal > 0 {
		util = v.cpuLoad / float64(v.cpuTotal)
	}
	v.sampleCPU(now, v.cpuLoad, util, hardware.CPUPower(v.cpuSpec, v.cpuTotal, util))
}

// sampleCPU records the VM's CPU load (Σ cores×intensity), utilization and
// power at now, updating the cluster-wide running aggregates by the deltas.
// Preemption passes zeros for all three (a gone machine draws nothing).
func (v *VM) sampleCPU(now, load, util, power float64) {
	c := v.cluster
	c.cpuLoadSumAgg.AddDelta(now, load-v.sampledLoad)
	v.sampledLoad = load
	c.cpuPowerAgg.AddDelta(now, power-v.cpuPower.Last())
	v.cpuUtil.Set(now, util)
	v.cpuPower.Set(now, power)
}

// AllocCPUs grants cores on one VM, choosing the VM with the most free cores
// (load spreading keeps per-VM thermal/power headroom realistic).
func (c *Cluster) AllocCPUs(cores int) (*CPUAlloc, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("cluster: non-positive core count %d", cores)
	}
	var best *VM
	for _, vm := range c.vms {
		if vm.preempted || vm.CPUCoresFree() < cores {
			continue
		}
		if best == nil || vm.CPUCoresFree() > best.CPUCoresFree() {
			best = vm
		}
	}
	if best == nil {
		return nil, fmt.Errorf("cluster: no VM with %d free cores (max free %d)", cores, c.MaxFreeCPUCores())
	}
	best.cpuInUse += cores
	c.nextAllocID++
	a := cutRecord(&c.cpuSlab, c.slabBlock())
	*a = CPUAlloc{ID: c.nextAllocID, vm: best, cores: cores}
	c.liveCPU[a.ID] = a
	c.bump()
	best.refreshCPUSeries()
	return a, nil
}

// FreeCPUCores counts free cores cluster-wide.
func (c *Cluster) FreeCPUCores() int {
	n := 0
	for _, vm := range c.vms {
		n += vm.CPUCoresFree()
	}
	return n
}

// MaxFreeCPUCores returns the largest single-VM free-core count (the biggest
// CPU allocation that could succeed).
func (c *Cluster) MaxFreeCPUCores() int {
	max := 0
	for _, vm := range c.vms {
		if f := vm.CPUCoresFree(); f > max {
			max = f
		}
	}
	return max
}

// FailAlloc simulates a single device/host fault: one live allocation —
// chosen by pick ∈ [0,1) over GPU allocations then CPU allocations, each
// sorted by ID so the choice is deterministic — is force-released and its
// OnPreempt fires, exactly as under preemption. Unlike PreemptVM the host
// stays up, so reacquisition can land on the same machine. Returns false
// when nothing is allocated.
func (c *Cluster) FailAlloc(pick float64) bool {
	var gpus []*GPUAlloc
	for _, a := range c.liveGPU {
		gpus = append(gpus, a)
	}
	var cpus []*CPUAlloc
	for _, a := range c.liveCPU {
		cpus = append(cpus, a)
	}
	sort.Slice(gpus, func(i, j int) bool { return gpus[i].ID < gpus[j].ID })
	sort.Slice(cpus, func(i, j int) bool { return cpus[i].ID < cpus[j].ID })
	n := len(gpus) + len(cpus)
	if n == 0 {
		return false
	}
	idx := int(pick * float64(n))
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	// Release first, then fire OnPreempt — the same contract PreemptVM
	// gives owners (the allocation is already gone when the callback runs).
	if idx < len(gpus) {
		a := gpus[idx]
		a.Release()
		if a.OnPreempt != nil {
			a.OnPreempt()
		}
	} else {
		a := cpus[idx-len(gpus)]
		a.Release()
		if a.OnPreempt != nil {
			a.OnPreempt()
		}
	}
	return true
}

// PreemptVM simulates a spot eviction: all allocations on the VM are
// released, their OnPreempt callbacks fire, and the VM stops granting.
// Preempting a non-spot VM panics — on-demand VMs are not evicted, and a
// test doing so is testing the wrong thing.
func (c *Cluster) PreemptVM(name string) {
	var vm *VM
	for _, v := range c.vms {
		if v.Name == name {
			vm = v
			break
		}
	}
	if vm == nil {
		panic(fmt.Sprintf("cluster: preempt of unknown VM %q", name))
	}
	if !vm.Spot {
		panic(fmt.Sprintf("cluster: preempt of on-demand VM %q", name))
	}
	if vm.preempted {
		return
	}
	vm.preempted = true
	c.bumpCapacity()
	now := c.engine.Now().Seconds()

	// Force-release every live allocation touching the VM, then fire its
	// OnPreempt so the owner can re-submit the work elsewhere. Multi-VM GPU
	// grants lose the whole allocation: partial grants would leave the owner
	// with an allocation object whose device set silently changed.
	var victimsGPU []*GPUAlloc
	for _, a := range c.liveGPU {
		for _, g := range a.gpus {
			if g.vm == vm {
				victimsGPU = append(victimsGPU, a)
				break
			}
		}
	}
	var victimsCPU []*CPUAlloc
	for _, a := range c.liveCPU {
		if a.vm == vm {
			victimsCPU = append(victimsCPU, a)
		}
	}
	// Map iteration order is random; sort by allocation ID so release hooks
	// fire deterministically (the whole simulation depends on it).
	sort.Slice(victimsGPU, func(i, j int) bool { return victimsGPU[i].ID < victimsGPU[j].ID })
	sort.Slice(victimsCPU, func(i, j int) bool { return victimsCPU[i].ID < victimsCPU[j].ID })
	for _, a := range victimsGPU {
		a.Release()
	}
	for _, a := range victimsCPU {
		a.Release()
	}

	for _, g := range vm.gpus {
		g.allocated = false
		g.intensity = 0
		g.setUtil(now, 0)
		g.setPower(now, 0) // powered off once evicted
	}
	vm.cpuInUse = 0
	vm.cpuLoad = 0
	vm.sampleCPU(now, 0, 0, 0)

	for _, a := range victimsGPU {
		if a.OnPreempt != nil {
			a.OnPreempt()
		}
	}
	for _, a := range victimsCPU {
		if a.OnPreempt != nil {
			a.OnPreempt()
		}
	}
	for _, fn := range c.preemptHooks {
		fn(vm)
	}
}
