package agents

import (
	"fmt"
	"strings"

	"repro/internal/contentkey"
	"repro/internal/hardware"
	"repro/internal/profiles"
)

// Profiler implements §3.3(a): "To be able to offer different resource
// configurations, we need to profile the agents and tools on different
// hardware and configurations. However, this profiling is amortized over the
// lifetime of all the workflows."
//
// It measures each (implementation, candidate config) pair by running probe
// executions at two work sizes and fitting the affine latency model the
// optimizer consumes. Device intensities and quality are read from the
// implementation's declared characteristics (in the real system these come
// from hardware counters and eval suites respectively).
type Profiler struct {
	catalog *hardware.Catalog
	// ProbeSmall and ProbeLarge are the two probe work sizes; they must
	// differ. Defaults are 1 and 100 units.
	ProbeSmall, ProbeLarge float64
	// profiled counts probe executions performed (for the amortization
	// accounting in overhead reports).
	probes int
}

// NewProfiler returns a profiler over a catalog.
func NewProfiler(cat *hardware.Catalog) *Profiler {
	return &Profiler{catalog: cat, ProbeSmall: 1, ProbeLarge: 100}
}

// Probes returns how many probe executions have been run.
func (p *Profiler) Probes() int { return p.probes }

// ProfileImplementation measures one implementation under one config.
func (p *Profiler) ProfileImplementation(im *Implementation, cfg profiles.ResourceConfig) (profiles.Profile, error) {
	if p.ProbeSmall == p.ProbeLarge {
		return profiles.Profile{}, fmt.Errorf("agents: probe sizes must differ")
	}
	latSmall, err := im.Perf.LatencyS(p.ProbeSmall, cfg, p.catalog)
	if err != nil {
		return profiles.Profile{}, err
	}
	latLarge, err := im.Perf.LatencyS(p.ProbeLarge, cfg, p.catalog)
	if err != nil {
		return profiles.Profile{}, err
	}
	p.probes += 2
	perUnit := (latLarge - latSmall) / (p.ProbeLarge - p.ProbeSmall)
	base := latSmall - p.ProbeSmall*perUnit
	if base < 0 {
		base = 0
	}
	gpuIntensity := 0.0
	if cfg.GPUs > 0 {
		gpuIntensity = im.Perf.GPUIntensity
	}
	cpuIntensity := 0.0
	if cfg.CPUCores > 0 {
		cpuIntensity = im.Perf.CPUIntensity
	}
	return profiles.Profile{
		Implementation: im.Name,
		Capability:     string(im.Capability),
		Config:         cfg,
		BaseS:          base,
		PerUnitS:       perUnit,
		GPUIntensity:   gpuIntensity,
		CPUIntensity:   cpuIntensity,
		Quality:        im.Quality,
	}, nil
}

// SharedProfiles returns the profile store for (catalog, library), profiling
// at most once per distinct content and handing every caller a copy-on-write
// view of the memoized result — §3.3(a)'s "profiling is amortized over the
// lifetime of all the workflows" made literal. Experiments that build a
// fresh testbed per load point hit the same master store as long as their
// catalog and library contents match; callers that mutate their view
// (calibration tests) detach automatically and cannot perturb anyone else.
//
// The content key lives in profiles.Registry.Shared rather than taking the
// library directly because profiles must not import agents (agents consumes
// profiles).
func SharedProfiles(cat *hardware.Catalog, lib *Library) (*profiles.Store, error) {
	return SharedProfilesIn(nil, cat, lib)
}

// SharedProfilesIn is SharedProfiles against an explicit registry, for
// cluster nodes that keep per-node profile state and warm it by replication
// rather than through the process-wide default. A nil registry selects
// profiles.DefaultRegistry, making SharedProfilesIn(nil, ...) identical to
// SharedProfiles.
func SharedProfilesIn(reg *profiles.Registry, cat *hardware.Catalog, lib *Library) (*profiles.Store, error) {
	if reg == nil {
		reg = profiles.DefaultRegistry()
	}
	// Length-prefix both fingerprints so the joint key inherits their
	// injectivity (a bare separator could be forged by a name payload).
	var key strings.Builder
	contentkey.WriteString(&key, cat.Fingerprint())
	contentkey.WriteString(&key, lib.Fingerprint())
	return reg.Shared(key.String(), func() (*profiles.Store, error) {
		return NewProfiler(cat).ProfileLibrary(lib)
	})
}

// ProfileLibrary measures every implementation in the library across its
// candidate configs, returning the populated store. This is the "when a new
// one is added to the library" path, run once per library construction.
func (p *Profiler) ProfileLibrary(lib *Library) (*profiles.Store, error) {
	store := profiles.NewStore()
	for _, cap := range lib.Capabilities() {
		for _, im := range lib.ByCapability(cap) {
			for _, cfg := range im.CandidateConfigs(p.catalog) {
				prof, err := p.ProfileImplementation(im, cfg)
				if err != nil {
					return nil, fmt.Errorf("profiling %s on %v: %w", im.Name, cfg, err)
				}
				if err := store.Put(prof); err != nil {
					return nil, err
				}
			}
		}
	}
	return store, nil
}
