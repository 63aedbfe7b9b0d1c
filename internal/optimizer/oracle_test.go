package optimizer

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/agents"
	"repro/internal/hardware"
	"repro/internal/profiles"
	"repro/internal/workflow"
)

// The oracle is the search this package ran before it became one pass:
// enumerate every scored candidate into a slice, prune the Pareto-dominated
// ones (the O(n²) check), pick among the rest. It reads the library and store
// directly and prices every candidate through Profile.CostUSD / EnergyJ, so it
// shares no memo with the search it checks.

func (o *Optimizer) oracleDecide(d capDemand, avail availability, opts Options) (Decision, error) {
	if pin, ok := opts.Pinned[d.capability]; ok {
		return o.applyPin(&d, avail, pin)
	}
	cands := o.enumerate(d, avail, opts)
	if len(cands) == 0 && opts.MinQuality > 0 && opts.RelaxFloor {
		relaxed := opts
		relaxed.MinQuality = 0
		all := o.enumerate(d, avail, relaxed)
		best := 0.0
		for _, c := range all {
			if c.quality > best {
				best = c.quality
			}
		}
		for _, c := range all {
			if c.quality == best {
				cands = append(cands, c)
			}
		}
	}
	if len(cands) == 0 {
		return Decision{}, fmt.Errorf("optimizer: no feasible configuration for capability %q (quality floor %.2f)",
			d.capability, opts.MinQuality)
	}
	best := pick(prunedominated(cands), opts.Constraint)
	return best.decision(d.capability), nil
}

// enumerate produces scored candidates across implementations, configs,
// parallelism levels and (under MAX_QUALITY) execution paths.
func (o *Optimizer) enumerate(d capDemand, avail availability, opts Options) []candidate {
	var out []candidate
	for _, im := range o.lib.Implementations(agents.Capability(d.capability)) {
		for _, prof := range o.store.ForImplementation(im.Name) {
			if prof.Capability != d.capability || !avail.fits(prof.Config) {
				continue
			}
			if opts.MinQuality > 0 && prof.Quality < opts.MinQuality {
				continue
			}
			maxK := min(d.tasks, avail.maxParallel(prof.Config))
			if maxK < 1 {
				continue
			}
			for _, k := range parallelLadder(maxK) {
				paths := []int{1}
				if opts.Constraint == workflow.MaxQuality && opts.MaxPaths > 1 && d.isLLM {
					for p := 2; p <= opts.MaxPaths; p *= 2 {
						paths = append(paths, p)
					}
				}
				for _, p := range paths {
					out = append(out, o.score(d, prof, k, p))
				}
			}
		}
	}
	return out
}

// parallelLadder returns 1, 2, 4, ... maxK (always including maxK).
func parallelLadder(maxK int) []int {
	var ks []int
	for k := 1; k < maxK; k *= 2 {
		ks = append(ks, k)
	}
	return append(ks, maxK)
}

func (o *Optimizer) score(d capDemand, prof profiles.Profile, k, paths int) candidate {
	perTask := prof.LatencyS(d.avgWork)
	waves := math.Ceil(float64(d.tasks) / float64(k))
	latency := waves * perTask
	costPerTask := prof.CostUSD(o.cat, o.cpuType, d.avgWork)
	energyPerTask := prof.EnergyJ(o.cat, o.cpuType, d.avgWork)
	quality := prof.Quality
	if paths > 1 {
		latency *= 1.05
		quality = 1 - math.Pow(1-quality, float64(paths))
	}
	return candidate{
		impl:     prof.Implementation,
		cfg:      prof.Config,
		parallel: k,
		paths:    paths,
		latency:  latency,
		cost:     costPerTask * float64(d.tasks) * float64(paths),
		energy:   energyPerTask * float64(d.tasks) * float64(paths),
		quality:  quality,
	}
}

// prunedominated removes candidates strictly dominated on
// (latency, cost, energy, -quality) — the greedy space reduction of §3.3(c).
func prunedominated(cands []candidate) []candidate {
	var out []candidate
	for i, c := range cands {
		dominated := false
		for j, d := range cands {
			if i == j {
				continue
			}
			if d.latency <= c.latency && d.cost <= c.cost && d.energy <= c.energy && d.quality >= c.quality &&
				(d.latency < c.latency || d.cost < c.cost || d.energy < c.energy || d.quality > c.quality) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, c)
		}
	}
	return out
}

// pick selects the constraint-optimal candidate with deterministic
// tie-breaking.
func pick(cands []candidate, c workflow.Constraint) candidate {
	best := cands[0]
	for _, cand := range cands[1:] {
		if oracleBetter(cand, best, c) {
			best = cand
		}
	}
	return best
}

func oracleBetter(a, b candidate, c workflow.Constraint) bool {
	var ka, kb [4]float64
	switch c {
	case workflow.MinCost:
		ka = [4]float64{a.cost, a.latency, a.energy, -a.quality}
		kb = [4]float64{b.cost, b.latency, b.energy, -b.quality}
	case workflow.MinLatency:
		ka = [4]float64{a.latency, a.cost, a.energy, -a.quality}
		kb = [4]float64{b.latency, b.cost, b.energy, -b.quality}
	case workflow.MinPower:
		ka = [4]float64{a.energy, a.cost, a.latency, -a.quality}
		kb = [4]float64{b.energy, b.cost, b.latency, -b.quality}
	case workflow.MaxQuality:
		ka = [4]float64{-a.quality, a.latency, a.cost, a.energy}
		kb = [4]float64{-b.quality, b.latency, b.cost, b.energy}
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return ka[i] < kb[i]
		}
	}
	if a.impl != b.impl {
		return a.impl < b.impl
	}
	return a.cfg.String() < b.cfg.String()
}

// randomSearchSpace builds a library of a few implementations of one
// capability and a store of their profiles, skewed towards the cases that tie
// or degenerate: a handful of shared quality values (0 and 1 among them),
// zero BaseS / PerUnitS, profiles copied across implementations and configs so
// whole candidates tie, sometimes a single profile, sometimes none that fits.
func randomSearchSpace(t *testing.T, r *rand.Rand, capability string) (*agents.Library, *profiles.Store) {
	t.Helper()
	lib := agents.NewLibrary()
	store := profiles.NewStore()
	qualities := []float64{0, 0.5, 0.8, 0.8, 0.95, 1}
	terms := []float64{0, 0, 0.25, 1, 3.5}
	intensities := []float64{0, 0.5, 1}
	configs := []profiles.ResourceConfig{
		{CPUCores: 1}, {CPUCores: 2}, {CPUCores: 10}, {CPUCores: 16}, {CPUCores: 200},
		{GPUs: 1, GPUType: hardware.GPUA100}, {GPUs: 2, GPUType: hardware.GPUA100}, {GPUs: 10, GPUType: hardware.GPUA100},
		{GPUs: 1, GPUType: hardware.GPUH100}, {GPUs: 64, GPUType: hardware.GPUH100},
		{GPUs: 1, GPUType: hardware.GPUA100, CPUCores: 8}, {GPUs: 2, GPUType: hardware.GPUH100, CPUCores: 16},
	}
	pickF := func(vs []float64) float64 { return vs[r.Intn(len(vs))] }
	impls := 1 + r.Intn(4)
	single := r.Intn(8) == 0
	var last profiles.Profile
	for i := range impls {
		name := fmt.Sprintf("impl-%c", 'a'+i)
		q := pickF(qualities)
		if err := lib.Register(agents.Implementation{
			Name: name, Capability: agents.Capability(capability), Kind: agents.KindMLModel, Quality: q,
			Perf: agents.PerfModel{CPUCoreUnitS: 1, MaxCores: 256},
		}); err != nil {
			t.Fatal(err)
		}
		for range 1 + r.Intn(6) {
			p := profiles.Profile{
				Implementation: name, Capability: capability, Config: configs[r.Intn(len(configs))],
				BaseS: pickF(terms), PerUnitS: pickF(terms),
				GPUIntensity: pickF(intensities), CPUIntensity: pickF(intensities), Quality: q,
			}
			if last.Implementation != "" && r.Intn(3) == 0 {
				// Same numbers as the previous profile, another implementation
				// and/or config: candidates that tie on every estimate.
				p.BaseS, p.PerUnitS, p.Quality = last.BaseS, last.PerUnitS, last.Quality
				p.GPUIntensity, p.CPUIntensity = last.GPUIntensity, last.CPUIntensity
			}
			store.MustPut(p)
			last = p
			if single {
				return lib, store
			}
		}
	}
	return lib, store
}

// TestSearchMatchesEnumeratePrunePick holds the single-pass search to the
// enumerate → prune → pick it replaced: over seeded random search spaces and
// demands, under every constraint, paths cap, floor mode and a pin, both
// return the same Decision on every field (floats compared with ==) or both
// fail.
func TestSearchMatchesEnumeratePrunePick(t *testing.T) {
	const capability = string(agents.CapSummarization) // an LLM capability, so paths ladders apply
	cat := hardware.DefaultCatalog()
	works := []float64{0, 1, 7.5, 1200}
	decided, failed, relaxedWins := 0, 0, 0
	for seed := range 400 {
		r := rand.New(rand.NewSource(int64(seed)))
		lib, store := randomSearchSpace(t, r, capability)
		opt := New(cat, lib, store, hardware.EPYC7V12)
		for range 6 {
			tasks := 1 + r.Intn(40)
			avg := works[r.Intn(len(works))]
			d := capDemand{capability: capability, tasks: tasks, totalWork: avg * float64(tasks), avgWork: avg, isLLM: r.Intn(3) > 0}
			gpus := map[hardware.GPUType]int{hardware.GPUA100: r.Intn(17), hardware.GPUH100: r.Intn(5)}
			avail := availability{gpus: gpus, cores: []int{0, 1, 9, 96, 192}[r.Intn(5)]}
			var pins map[string]Pin
			if r.Intn(10) == 0 {
				if ps := store.ForImplementation("impl-a"); len(ps) > 0 {
					p := ps[r.Intn(len(ps))]
					pins = map[string]Pin{capability: {Implementation: p.Implementation, Config: p.Config,
						Parallelism: r.Intn(3), ExecutionPaths: r.Intn(3), AllowScaling: r.Intn(2) == 0}}
				}
			}
			for _, c := range allConstraints {
				for _, maxPaths := range []int{1, 4} {
					for _, floor := range []Options{{}, {MinQuality: 0.9}, {MinQuality: 0.9, RelaxFloor: true}, {MinQuality: 1, RelaxFloor: true}} {
						o := floor
						o.Constraint, o.MaxPaths, o.Pinned = c, maxPaths, pins
						want, wantErr := opt.oracleDecide(d, avail, o)
						got, gotErr := opt.decide(&d, avail, o)
						if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
							t.Fatalf("seed %d %+v %+v: error %v, oracle %v", seed, d, o, gotErr, wantErr)
						}
						if got != want {
							t.Fatalf("seed %d %+v avail %+v %+v:\n search %+v\n oracle %+v", seed, d, avail, o, got, want)
						}
						if wantErr != nil {
							failed++
							continue
						}
						decided++
						if o.RelaxFloor && got.Quality < o.MinQuality && !got.Pinned {
							relaxedWins++
						}
					}
				}
			}
		}
	}
	// The generator must reach all three outcomes, or the comparison is idle.
	if decided < 10000 || failed < 1000 || relaxedWins < 1000 {
		t.Fatalf("coverage: %d decided, %d infeasible, %d relaxed below the floor", decided, failed, relaxedWins)
	}
}

// TestBetterTieBreakMatchesConfigString: better breaks a full tie by the
// configs' rendered strings without rendering them to the heap; over every
// pair of configs in the default store (plus multi-digit counts, where string
// order and numeric order part ways) it orders exactly as String() does.
func TestBetterTieBreakMatchesConfigString(t *testing.T) {
	cat := hardware.DefaultCatalog()
	lib := agents.DefaultLibrary()
	store, err := agents.NewProfiler(cat).ProfileLibrary(lib)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[profiles.ResourceConfig]bool{
		{CPUCores: 100}: true, {GPUs: 10, GPUType: hardware.GPUA100}: true, {GPUs: 10, GPUType: hardware.GPUA100, CPUCores: 9}: true,
	}
	for _, impl := range store.Implementations() {
		for _, p := range store.ForImplementation(impl) {
			seen[p.Config] = true
		}
	}
	var cfgs []profiles.ResourceConfig
	for c := range seen {
		cfgs = append(cfgs, c)
	}
	if len(cfgs) < 10 {
		t.Fatalf("only %d configs", len(cfgs))
	}
	for _, ca := range cfgs {
		for _, cb := range cfgs {
			a, b := candidate{impl: "x", cfg: ca}, candidate{impl: "x", cfg: cb}
			for _, c := range allConstraints {
				if got, want := better(&a, &b, c), ca.String() < cb.String(); got != want {
					t.Fatalf("better(%v, %v) = %v, strings order %v", ca, cb, got, want)
				}
			}
		}
	}
	a, b := candidate{impl: "x", cfg: cfgs[0]}, candidate{impl: "x", cfg: cfgs[1]}
	if n := testing.AllocsPerRun(100, func() { better(&a, &b, workflow.MinCost) }); n != 0 {
		t.Fatalf("a full tie costs %v allocations, want 0", n)
	}
}

// TestPlanAllocBudget: a warm Plan allocates the Plan and its Decisions map —
// the map is a header plus its table — and nothing else, whatever the
// constraint, the floor mode or the ties.
func TestPlanAllocBudget(t *testing.T) {
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("allocation counts differ under the race detector or coverage")
	}
	opt, snap, res := setup(t)
	for _, c := range allConstraints {
		o := Options{Constraint: c, MinQuality: 0.99, RelaxFloor: true, MaxPaths: 4}
		if _, err := opt.Plan(res.Graph, snap, o); err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(50, func() {
			if _, err := opt.Plan(res.Graph, snap, o); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocations per warm Plan", c, n)
		if n > 3 {
			t.Errorf("%s: a warm Plan costs %v allocations, budget 3 (Plan, map header, map table)", c, n)
		}
	}
}
