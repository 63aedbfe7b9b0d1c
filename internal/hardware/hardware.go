// Package hardware models the hardware SKUs the paper's evaluation runs on:
// GPU generations, CPU types, and cloud VM shapes, each with power and price
// curves. The catalog is the ground truth consumed by the cluster simulator
// (capacities), the profiler (performance scaling), the optimizer (price and
// power trade-offs, Table 1), and the telemetry energy meter (Table 2).
//
// Power and price figures follow the public datasheets the paper cites
// (NVIDIA A100/H100 datasheets, Azure ND-series pricing); absolute accuracy
// is not the point — the optimizer only consumes relative shapes.
package hardware

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/contentkey"
)

// GPUType identifies a GPU generation/SKU.
type GPUType string

// GPU generations referenced by the paper (Table 1 "GPU Generation" lever and
// the §4 testbed). V100 is included as an older generation for ablations.
const (
	GPUV100 GPUType = "V100"
	GPUA100 GPUType = "A100-80GB"
	GPUH100 GPUType = "H100"
)

// CPUType identifies a CPU model.
type CPUType string

// EPYC7V12 is the CPU in the paper's Standard_ND96amsr_A100_v4 testbed.
const (
	EPYC7V12 CPUType = "AMD-EPYC-7V12"
)

// GPUSpec describes one GPU generation.
type GPUSpec struct {
	Type GPUType
	// MemoryGB is device memory, bounding KV-cache capacity in llmsim.
	MemoryGB int
	// FP16TFLOPS is dense half-precision throughput; performance profiles
	// scale with the ratio of this figure across generations.
	FP16TFLOPS float64
	// IdleWatts is power drawn while allocated but not computing.
	IdleWatts float64
	// PeakWatts is power at 100% utilization (TDP).
	PeakWatts float64
	// HourlyUSD is the amortized rental price of one GPU.
	HourlyUSD float64
}

// CPUSpec describes one CPU model on a per-core basis.
type CPUSpec struct {
	Type CPUType
	// PerCoreGFLOPS approximates per-core compute for profile scaling.
	PerCoreGFLOPS float64
	// IdleWattsPerCore and PeakWattsPerCore bound the per-core power range.
	IdleWattsPerCore float64
	PeakWattsPerCore float64
	// HourlyUSDPerCore is the amortized rental price of one core.
	HourlyUSDPerCore float64
}

// VMSKU describes a rentable VM shape.
type VMSKU struct {
	Name     string
	CPU      CPUType
	CPUCores int
	GPU      GPUType
	GPUCount int
	// HourlyUSD is the on-demand price for the whole VM.
	HourlyUSD float64
	// SpotDiscount is the fractional price reduction when rented as a Spot
	// VM (e.g. 0.7 → pays 30% of on-demand). Zero means no spot offering.
	SpotDiscount float64
}

// Catalog is an immutable set of hardware specs. Use DefaultCatalog for the
// paper's testbed; tests build narrower catalogs.
type Catalog struct {
	gpus map[GPUType]GPUSpec
	cpus map[CPUType]CPUSpec
	vms  map[string]VMSKU
	// fp caches Fingerprint (catalogs are immutable after NewCatalog).
	fp string
}

// NewCatalog builds a catalog from explicit spec lists. Duplicate names panic
// — a catalog with two definitions of "A100" has no sensible meaning.
func NewCatalog(gpus []GPUSpec, cpus []CPUSpec, vms []VMSKU) *Catalog {
	c := &Catalog{
		gpus: make(map[GPUType]GPUSpec, len(gpus)),
		cpus: make(map[CPUType]CPUSpec, len(cpus)),
		vms:  make(map[string]VMSKU, len(vms)),
	}
	for _, g := range gpus {
		if _, dup := c.gpus[g.Type]; dup {
			panic(fmt.Sprintf("hardware: duplicate GPU spec %q", g.Type))
		}
		validateGPU(g)
		c.gpus[g.Type] = g
	}
	for _, p := range cpus {
		if _, dup := c.cpus[p.Type]; dup {
			panic(fmt.Sprintf("hardware: duplicate CPU spec %q", p.Type))
		}
		validateCPU(p)
		c.cpus[p.Type] = p
	}
	for _, v := range vms {
		if _, dup := c.vms[v.Name]; dup {
			panic(fmt.Sprintf("hardware: duplicate VM SKU %q", v.Name))
		}
		c.validateVM(v)
		c.vms[v.Name] = v
	}
	return c
}

func validateGPU(g GPUSpec) {
	if g.MemoryGB <= 0 || g.FP16TFLOPS <= 0 || g.PeakWatts <= 0 || g.HourlyUSD < 0 {
		panic(fmt.Sprintf("hardware: invalid GPU spec %+v", g))
	}
	if g.IdleWatts < 0 || g.IdleWatts > g.PeakWatts {
		panic(fmt.Sprintf("hardware: GPU %q idle power outside [0, peak]", g.Type))
	}
}

func validateCPU(p CPUSpec) {
	if p.PerCoreGFLOPS <= 0 || p.PeakWattsPerCore <= 0 || p.HourlyUSDPerCore < 0 {
		panic(fmt.Sprintf("hardware: invalid CPU spec %+v", p))
	}
	if p.IdleWattsPerCore < 0 || p.IdleWattsPerCore > p.PeakWattsPerCore {
		panic(fmt.Sprintf("hardware: CPU %q idle power outside [0, peak]", p.Type))
	}
}

func (c *Catalog) validateVM(v VMSKU) {
	if v.CPUCores <= 0 {
		panic(fmt.Sprintf("hardware: VM %q without CPU cores", v.Name))
	}
	if _, ok := c.cpus[v.CPU]; !ok {
		panic(fmt.Sprintf("hardware: VM %q references unknown CPU %q", v.Name, v.CPU))
	}
	if v.GPUCount > 0 {
		if _, ok := c.gpus[v.GPU]; !ok {
			panic(fmt.Sprintf("hardware: VM %q references unknown GPU %q", v.Name, v.GPU))
		}
	}
	if v.SpotDiscount < 0 || v.SpotDiscount >= 1 {
		panic(fmt.Sprintf("hardware: VM %q spot discount %v outside [0,1)", v.Name, v.SpotDiscount))
	}
}

// MustGPU returns the spec for a GPU type, panicking if absent. Use when the
// type came from the catalog itself.
func (c *Catalog) MustGPU(t GPUType) GPUSpec {
	g, ok := c.gpus[t]
	if !ok {
		panic(fmt.Sprintf("hardware: unknown GPU type %q", t))
	}
	return g
}

// MustCPU returns the spec for a CPU type, panicking if absent.
func (c *Catalog) MustCPU(t CPUType) CPUSpec {
	p, ok := c.cpus[t]
	if !ok {
		panic(fmt.Sprintf("hardware: unknown CPU type %q", t))
	}
	return p
}

// VM returns a VM SKU by name; ok is false if absent.
func (c *Catalog) VM(name string) (VMSKU, bool) {
	v, ok := c.vms[name]
	return v, ok
}

// MustVM returns a VM SKU by name, panicking if absent.
func (c *Catalog) MustVM(name string) VMSKU {
	v, ok := c.vms[name]
	if !ok {
		panic(fmt.Sprintf("hardware: unknown VM SKU %q", name))
	}
	return v
}

// GPUTypes lists the catalog's GPU types in a stable (sorted) order.
func (c *Catalog) GPUTypes() []GPUType {
	out := make([]GPUType, 0, len(c.gpus))
	for t := range c.gpus {
		out = append(out, t)
	}
	sortGPUTypes(out)
	return out
}

func sortGPUTypes(ts []GPUType) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

// Fingerprint renders the catalog's full content deterministically and
// injectively (length-prefixed names, semicolon-terminated numbers). Two
// catalogs with equal fingerprints behave identically everywhere specs are
// consumed, which is what lets content-keyed caches (shared profile stores,
// plan caches) treat distinct catalog instances as interchangeable. Every
// spec field must be serialized here. Catalogs are immutable, so the
// rendering is computed once.
func (c *Catalog) Fingerprint() string {
	if c.fp != "" {
		return c.fp
	}
	var b strings.Builder
	str := func(s string) { contentkey.WriteString(&b, s) }
	num := func(f float64) { contentkey.WriteFloat(&b, f) }
	for _, t := range c.GPUTypes() {
		g := c.gpus[t]
		b.WriteString("gpu")
		str(string(g.Type))
		contentkey.WriteInt(&b, g.MemoryGB)
		num(g.FP16TFLOPS)
		num(g.IdleWatts)
		num(g.PeakWatts)
		num(g.HourlyUSD)
	}
	cpus := make([]string, 0, len(c.cpus))
	for t := range c.cpus {
		cpus = append(cpus, string(t))
	}
	sort.Strings(cpus)
	for _, t := range cpus {
		p := c.cpus[CPUType(t)]
		b.WriteString("cpu")
		str(string(p.Type))
		num(p.PerCoreGFLOPS)
		num(p.IdleWattsPerCore)
		num(p.PeakWattsPerCore)
		num(p.HourlyUSDPerCore)
	}
	vms := make([]string, 0, len(c.vms))
	for n := range c.vms {
		vms = append(vms, n)
	}
	sort.Strings(vms)
	for _, n := range vms {
		v := c.vms[n]
		b.WriteString("vm")
		str(v.Name)
		str(string(v.CPU))
		contentkey.WriteInt(&b, v.CPUCores)
		str(string(v.GPU))
		contentkey.WriteInt(&b, v.GPUCount)
		num(v.HourlyUSD)
		num(v.SpotDiscount)
	}
	c.fp = b.String()
	return c.fp
}

// GPUPower returns instantaneous GPU power draw at a given utilization in
// [0,1], linearly interpolating between idle and peak. Utilization outside
// [0,1] is clamped.
func GPUPower(spec GPUSpec, util float64) float64 {
	return lerpPower(spec.IdleWatts, spec.PeakWatts, util)
}

// CPUPower returns instantaneous power for `cores` cores at a utilization in
// [0,1] applied across them.
func CPUPower(spec CPUSpec, cores int, util float64) float64 {
	return float64(cores) * lerpPower(spec.IdleWattsPerCore, spec.PeakWattsPerCore, util)
}

func lerpPower(idle, peak, util float64) float64 {
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	return idle + (peak-idle)*util
}

// SpeedupVs returns the relative FP16 throughput of GPU a over GPU b, used by
// profiles to translate a measurement on one generation to another (Table 1
// "GPU Generation" lever).
func (c *Catalog) SpeedupVs(a, b GPUType) float64 {
	return c.MustGPU(a).FP16TFLOPS / c.MustGPU(b).FP16TFLOPS
}

// NDv4SKUName is the paper's testbed VM shape.
const NDv4SKUName = "Standard_ND96amsr_A100_v4"

var (
	defaultCatalogOnce sync.Once
	defaultCatalog     *Catalog
)

// DefaultCatalog reproduces the paper's §4 testbed plus the neighbouring
// SKUs the optimizer may consider (H100 boxes for the GPU-generation lever,
// a CPU-only shape for CPU offload).
//
// Catalogs are immutable, so every caller shares one instance; building (and
// fingerprinting) it per call showed up as a top allocation site when the
// serving benchmark spins up hundreds of per-request testbeds. The
// fingerprint memo is pre-warmed inside the Once so the shared instance is
// never lazily written after publication.
func DefaultCatalog() *Catalog {
	defaultCatalogOnce.Do(func() {
		defaultCatalog = buildDefaultCatalog()
		defaultCatalog.Fingerprint()
	})
	return defaultCatalog
}

func buildDefaultCatalog() *Catalog {
	gpus := []GPUSpec{
		{
			Type:       GPUV100,
			MemoryGB:   32,
			FP16TFLOPS: 125,
			IdleWatts:  40,
			PeakWatts:  300,
			HourlyUSD:  1.20,
		},
		{
			// NVIDIA A100-80GB SXM: 400W TDP per the datasheet the paper cites.
			Type:       GPUA100,
			MemoryGB:   80,
			FP16TFLOPS: 312,
			IdleWatts:  55,
			PeakWatts:  400,
			HourlyUSD:  3.40,
		},
		{
			// NVIDIA H100 SXM: 700W TDP, ~3x A100 dense FP16.
			Type:       GPUH100,
			MemoryGB:   80,
			FP16TFLOPS: 989,
			IdleWatts:  70,
			PeakWatts:  700,
			HourlyUSD:  8.20,
		},
	}
	cpus := []CPUSpec{
		{
			// AMD EPYC 7V12: 64 cores, 240W TDP → per-core peak ≈ 240/64 =
			// 3.75W (we use 3.6 plus a 0.8W idle floor). The paper's claim
			// that the 8-GPU complex is "rated 16× higher than the CPU power"
			// checks out: 8×400W / (64×3.6W) ≈ 14×.
			Type:             EPYC7V12,
			PerCoreGFLOPS:    38,
			IdleWattsPerCore: 0.8,
			PeakWattsPerCore: 3.6,
			HourlyUSDPerCore: 0.036,
		},
	}
	vms := []VMSKU{
		{
			Name:         NDv4SKUName,
			CPU:          EPYC7V12,
			CPUCores:     96,
			GPU:          GPUA100,
			GPUCount:     8,
			HourlyUSD:    27.20,
			SpotDiscount: 0.68,
		},
		{
			Name:         "Standard_ND96isr_H100_v5",
			CPU:          EPYC7V12,
			CPUCores:     96,
			GPU:          GPUH100,
			GPUCount:     8,
			HourlyUSD:    69.12,
			SpotDiscount: 0.55,
		},
		{
			Name:         "Standard_HB120rs_v3",
			CPU:          EPYC7V12,
			CPUCores:     120,
			GPUCount:     0,
			HourlyUSD:    3.60,
			SpotDiscount: 0.75,
		},
	}
	return NewCatalog(gpus, cpus, vms)
}
