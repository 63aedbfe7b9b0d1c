// Package profiles implements the execution-profile layer of §3.2: for every
// (implementation, hardware configuration) pair the runtime keeps a profile
// capturing the efficiency-vs-quality surface — latency, power, monetary
// cost, and result quality. Profiles are the *only* information the
// optimizer consumes about an implementation, which is what makes the agent
// library extensible: registering a new model means registering profiles,
// never touching scheduling code.
package profiles

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/hardware"
)

// ResourceConfig is a concrete hardware assignment for one agent execution:
// a number of GPUs of one type and/or a number of CPU cores. It is a valid
// map key (used to index profile stores).
type ResourceConfig struct {
	GPUs     int
	GPUType  hardware.GPUType
	CPUCores int
}

// IsZero reports an empty config.
func (r ResourceConfig) IsZero() bool { return r.GPUs == 0 && r.CPUCores == 0 }

// Validate checks internal consistency.
func (r ResourceConfig) Validate() error {
	if r.GPUs < 0 || r.CPUCores < 0 {
		return fmt.Errorf("profiles: negative resources in %v", r)
	}
	if r.GPUs > 0 && r.GPUType == "" {
		return fmt.Errorf("profiles: GPUs without a GPU type in %v", r)
	}
	if r.GPUs == 0 && r.GPUType != "" {
		return fmt.Errorf("profiles: GPU type without GPUs in %v", r)
	}
	if r.IsZero() {
		return fmt.Errorf("profiles: empty resource config")
	}
	return nil
}

// String renders e.g. "2xA100-80GB+32c" / "64c" / "1xH100". It concatenates
// directly rather than going through fmt; hot paths render into a buffer of
// their own with AppendTo.
func (r ResourceConfig) String() string {
	switch {
	case r.GPUs > 0 && r.CPUCores > 0:
		return strconv.Itoa(r.GPUs) + "x" + string(r.GPUType) + "+" + strconv.Itoa(r.CPUCores) + "c"
	case r.GPUs > 0:
		return strconv.Itoa(r.GPUs) + "x" + string(r.GPUType)
	default:
		return strconv.Itoa(r.CPUCores) + "c"
	}
}

// AppendTo renders the config exactly as String into buf and returns the
// extended slice, for callers building larger labels or cache keys into a
// reusable scratch.
func (r ResourceConfig) AppendTo(buf []byte) []byte {
	switch {
	case r.GPUs > 0 && r.CPUCores > 0:
		buf = strconv.AppendInt(buf, int64(r.GPUs), 10)
		buf = append(buf, 'x')
		buf = append(buf, r.GPUType...)
		buf = append(buf, '+')
		buf = strconv.AppendInt(buf, int64(r.CPUCores), 10)
		return append(buf, 'c')
	case r.GPUs > 0:
		buf = strconv.AppendInt(buf, int64(r.GPUs), 10)
		buf = append(buf, 'x')
		return append(buf, r.GPUType...)
	default:
		buf = strconv.AppendInt(buf, int64(r.CPUCores), 10)
		return append(buf, 'c')
	}
}

// HourlyUSD prices the config from the catalog: GPUs at their hourly rate
// plus cores at theirs. This is the fractional-rental view the optimizer
// uses to estimate per-task cost.
func (r ResourceConfig) HourlyUSD(cat *hardware.Catalog, cpu hardware.CPUType) float64 {
	total := 0.0
	if r.GPUs > 0 {
		total += float64(r.GPUs) * cat.MustGPU(r.GPUType).HourlyUSD
	}
	if r.CPUCores > 0 {
		total += float64(r.CPUCores) * cat.MustCPU(cpu).HourlyUSDPerCore
	}
	return total
}

// Profile is one measured (implementation, config) execution profile.
// Latency is affine in work: Latency(w) = BaseS + w·PerUnitS. Work units are
// capability-specific (audio seconds, frames, tokens); callers must be
// consistent.
type Profile struct {
	Implementation string
	Capability     string
	Config         ResourceConfig

	// BaseS is fixed per-invocation overhead (model load, dispatch).
	BaseS float64
	// PerUnitS is marginal seconds per work unit.
	PerUnitS float64
	// GPUIntensity / CPUIntensity are the device utilizations the execution
	// sustains, in [0,1]; they drive the power model.
	GPUIntensity float64
	CPUIntensity float64
	// Quality is the result-quality score in [0,1] for this implementation
	// (configs do not change quality — the paper's Table 1 shows hardware
	// levers as quality-neutral).
	Quality float64
}

// LatencyS predicts execution latency for the given work.
func (p Profile) LatencyS(work float64) float64 {
	return p.BaseS + work*p.PerUnitS
}

// PowerW predicts sustained power draw during execution.
func (p Profile) PowerW(cat *hardware.Catalog, cpu hardware.CPUType) float64 {
	total := 0.0
	if p.Config.GPUs > 0 {
		spec := cat.MustGPU(p.Config.GPUType)
		// Marginal power above idle: the devices idle anyway while rented,
		// so a task's attributable power is the active delta.
		total += float64(p.Config.GPUs) * (hardware.GPUPower(spec, p.GPUIntensity) - spec.IdleWatts)
	}
	if p.Config.CPUCores > 0 {
		spec := cat.MustCPU(cpu)
		total += hardware.CPUPower(spec, p.Config.CPUCores, p.CPUIntensity) -
			hardware.CPUPower(spec, p.Config.CPUCores, 0)
	}
	return total
}

// EnergyJ predicts attributable energy for the given work.
func (p Profile) EnergyJ(cat *hardware.Catalog, cpu hardware.CPUType, work float64) float64 {
	return p.PowerW(cat, cpu) * p.LatencyS(work)
}

// CostUSD predicts monetary cost for the given work: config hourly price ×
// occupancy time.
func (p Profile) CostUSD(cat *hardware.Catalog, cpu hardware.CPUType, work float64) float64 {
	return p.Config.HourlyUSD(cat, cpu) * p.LatencyS(work) / 3600
}

// Store indexes profiles by implementation and config.
//
// Stores returned by Shared are copy-on-write views over a memoized master:
// reads share the master's data, and the first mutation transparently
// detaches a private deep copy, so calibration-mutating callers stay
// isolated while everyone else amortizes profiling (§3.3(a)).
type Store struct {
	byImpl map[string][]Profile
	// cow marks the backing data as shared; the first write detaches.
	cow bool
	// gen counts mutations, letting caches keyed on profile content (e.g.
	// the runtime's plan cache) detect staleness in O(1).
	gen int
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{byImpl: make(map[string][]Profile)}
}

// View returns a copy-on-write view of the store: reads are shared, the
// first mutation detaches a private copy.
func (s *Store) View() *Store {
	return &Store{byImpl: s.byImpl, cow: true}
}

// Gen returns the store's mutation generation (0 for a never-mutated store
// or a fresh view).
func (s *Store) Gen() int { return s.gen }

// detach deep-copies shared backing data before the first write.
func (s *Store) detach() {
	if !s.cow {
		return
	}
	m := make(map[string][]Profile, len(s.byImpl))
	for k, v := range s.byImpl {
		cp := make([]Profile, len(v))
		copy(cp, v)
		m[k] = cp
	}
	s.byImpl = m
	s.cow = false
}

// Put inserts or replaces the profile for (implementation, config).
func (s *Store) Put(p Profile) error {
	if p.Implementation == "" || p.Capability == "" {
		return fmt.Errorf("profiles: profile missing implementation or capability")
	}
	if err := p.Config.Validate(); err != nil {
		return err
	}
	if p.PerUnitS < 0 || p.BaseS < 0 {
		return fmt.Errorf("profiles: negative latency terms in %s/%v", p.Implementation, p.Config)
	}
	s.detach()
	s.gen++
	list := s.byImpl[p.Implementation]
	for i := range list {
		if list[i].Config == p.Config {
			list[i] = p
			return nil
		}
	}
	// Keep each implementation's list sorted by config string so the
	// optimizer's per-enumeration reads need no per-call sort.
	key := p.Config.String()
	i := sort.Search(len(list), func(i int) bool { return list[i].Config.String() > key })
	list = append(list, Profile{})
	copy(list[i+1:], list[i:])
	list[i] = p
	s.byImpl[p.Implementation] = list
	return nil
}

// MustPut is Put for registration code where failure is a bug.
func (s *Store) MustPut(p Profile) {
	if err := s.Put(p); err != nil {
		panic(err)
	}
}

// Get returns the profile for (implementation, config).
func (s *Store) Get(impl string, cfg ResourceConfig) (Profile, bool) {
	for _, p := range s.byImpl[impl] {
		if p.Config == cfg {
			return p, true
		}
	}
	return Profile{}, false
}

// ForImplementation returns all profiles of one implementation, sorted by
// config string for determinism. The list is maintained sorted at Put time,
// so this is a straight copy.
func (s *Store) ForImplementation(impl string) []Profile {
	out := make([]Profile, len(s.byImpl[impl]))
	copy(out, s.byImpl[impl])
	return out
}

// Implementations returns the implementation names present, sorted.
func (s *Store) Implementations() []string {
	out := make([]string, 0, len(s.byImpl))
	for k := range s.byImpl {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Len returns the total profile count.
func (s *Store) Len() int {
	n := 0
	for _, l := range s.byImpl {
		n += len(l)
	}
	return n
}
