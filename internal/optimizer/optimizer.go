// Package optimizer implements Murakkab's configuration search (§3.2
// Model/Tool Selection + Resource Allocation, §3.3(c)): given a workflow
// DAG, the profile store and current cluster capacity, it chooses — per
// capability — an implementation, a per-worker hardware configuration, a
// degree of task parallelism and (for MAX_QUALITY) a number of redundant
// execution paths, optimizing the job's declared constraint subject to a
// quality floor.
//
// The search is the paper's "greedy search using hierarchy of optimization
// functions": capabilities are decided in descending order of total work
// (the dominant stage first), candidates are pruned by Pareto dominance
// before scoring, and LLM-served capabilities are decided first because
// their engines reserve GPUs that other stages then cannot use.
package optimizer

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/agents"
	"repro/internal/cluster"
	"repro/internal/dag"
	"repro/internal/hardware"
	"repro/internal/profiles"
	"repro/internal/workflow"
)

// Decision is the chosen execution configuration for one capability.
type Decision struct {
	Capability     string
	Implementation string
	// Config is the per-worker resource grant.
	Config profiles.ResourceConfig
	// Parallelism is the number of concurrent workers for the stage (for
	// LLM capabilities it is the admission width; the engine batches).
	Parallelism int
	// ExecutionPaths > 1 replicates each task across independent reasoning
	// paths and keeps the best result (§3.2 Execution Paths).
	ExecutionPaths int
	// Pinned marks decisions forced by the caller rather than searched.
	Pinned bool
	// AllowScaling permits the cluster manager to autoscale the serving
	// engine behind a pinned LLM decision (pins fix the initial size only).
	AllowScaling bool

	// Estimates backing the decision (per stage, all tasks).
	EstLatencyS float64
	EstCostUSD  float64
	EstEnergyJ  float64
	Quality     float64
}

// Plan is a full workflow execution plan.
type Plan struct {
	Constraint workflow.Constraint
	Decisions  map[string]Decision
	// EstQuality is the work-weighted mean stage quality.
	EstQuality float64
	// EstCostUSD / EstEnergyJ aggregate stage estimates.
	EstCostUSD float64
	EstEnergyJ float64
	// EstLatencyS sums per-stage latency estimates — a stage-serialized upper
	// bound on completion time. It is the completion-objective scalar the
	// reconfiguration controller compares plans by (consistent across plans
	// over the same DAG, which is all a relative comparison needs).
	EstLatencyS float64

	// labels is Labels' memo.
	labels map[string]string
}

// AppendLabel renders the decision as "impl @ config ×N[ paths=M]" — a
// report's Decisions value — into buf.
func (d Decision) AppendLabel(buf []byte) []byte {
	buf = append(buf, d.Implementation...)
	buf = append(buf, " @ "...)
	buf = d.Config.AppendTo(buf)
	buf = append(buf, " ×"...)
	buf = strconv.AppendInt(buf, int64(d.Parallelism), 10)
	if d.ExecutionPaths > 1 {
		buf = append(buf, " paths="...)
		buf = strconv.AppendInt(buf, int64(d.ExecutionPaths), 10)
	}
	return buf
}

// Labels returns every decision's label by capability: the Decisions map of
// the report of a job that ran under this plan. A plan is immutable and shared
// by the jobs it is cached for, so the map is rendered on the first call and
// handed to all of them read-only. Like the plan cache itself, it belongs to
// the one goroutine that executes the plan.
func (p *Plan) Labels() map[string]string {
	if p.labels == nil {
		p.labels = make(map[string]string, len(p.Decisions))
		var buf []byte
		for cap, d := range p.Decisions {
			buf = d.AppendLabel(buf[:0])
			p.labels[cap] = string(buf)
		}
	}
	return p.labels
}

// Objective collapses a plan's estimates to one lower-is-better scalar for
// the given constraint: cost in USD, energy in joules, completion as the
// stage-serialized latency sum, and quality negated (higher quality = lower
// objective). The reconfiguration controller compares the objective of a
// re-planned remaining DAG against the current plan's over the same DAG.
func (p *Plan) Objective(c workflow.Constraint) float64 {
	switch c {
	case workflow.MinCost:
		return p.EstCostUSD
	case workflow.MinPower:
		return p.EstEnergyJ
	case workflow.MaxQuality:
		return -p.EstQuality
	default: // MinLatency and any future constraint: completion time
		return p.EstLatencyS
	}
}

// Pin forces a capability's implementation and configuration (used by the
// Figure 3 / Table 2 experiments to sweep specific STT configurations, and
// by the §4 setup's fixed NVLM deployment sizes). Parallelism 0 lets the
// optimizer choose the worker count.
type Pin struct {
	Implementation string
	Config         profiles.ResourceConfig
	Parallelism    int
	// ExecutionPaths pins top-k replication (0 or 1 = none). The
	// reconfiguration controller pins in-flight capabilities to their full
	// current decision, which must include replication or re-scoring would
	// understate the quality the plan already bought.
	ExecutionPaths int
	// AllowScaling lets the cluster manager autoscale the engine created
	// for a pinned LLM decision; the pin then fixes only the initial size.
	AllowScaling bool
}

// Options configure one planning pass.
type Options struct {
	Constraint workflow.Constraint
	// MinQuality floors per-stage quality; candidates below it are
	// discarded. Zero disables the floor.
	MinQuality float64
	// RelaxFloor degrades gracefully: when no implementation of a
	// capability meets MinQuality, the highest-quality feasible candidates
	// are used instead of failing the whole plan. Without it, an
	// unsatisfiable floor is an error.
	RelaxFloor bool
	// Pinned forces configurations per capability.
	Pinned map[string]Pin
	// MaxPaths caps execution-path replication under MAX_QUALITY (default 1
	// = no replication).
	MaxPaths int
}

// Optimizer performs configuration search.
//
// An Optimizer carries per-instance scratch state (candidate buffers and
// generation-checked library/profile views), so a single instance must not
// run Plan concurrently from multiple goroutines; concurrent searchers each
// take their own via Clone.
type Optimizer struct {
	cat     *hardware.Catalog
	lib     *agents.Library
	store   *profiles.Store
	cpuType hardware.CPUType

	// implsByCap / profsByImpl memoize the library's and store's defensive
	// copies per generation: enumerate runs once per capability per planned
	// job, and re-cloning the implementation list and profile slices on every
	// search dominated its allocations.
	implsByCap  map[string][]*agents.Implementation
	implsGen    int
	profsByImpl map[string][]profiles.Profile
	profsGen    int
	// enumBuf / pruneBuf are reused across decide calls: candidates are
	// consumed (picked from) before the next capability's enumeration, so the
	// backing arrays amortize to zero allocation per plan. Sized by
	// implementations × profiles × parallelism ladder × execution paths.
	enumBuf  []candidate
	pruneBuf []candidate
	// Per-plan arena scratch, reset (not reallocated) at every Plan call so
	// the buffers survive across stages and re-plans: demand accumulation,
	// the availability GPU map, and the parallelism/paths ladders inside
	// enumerate.
	demandBuf []capDemand
	demandIdx map[string]int
	availGPUs map[hardware.GPUType]int
	ladderBuf []int
	pathsBuf  []int
}

// New creates an optimizer.
func New(cat *hardware.Catalog, lib *agents.Library, store *profiles.Store, cpuType hardware.CPUType) *Optimizer {
	if cat == nil || lib == nil || store == nil {
		panic("optimizer: nil dependency")
	}
	return &Optimizer{cat: cat, lib: lib, store: store, cpuType: cpuType}
}

// Clone returns an optimizer over the same (immutable) catalog, library and
// profile store but with its own scratch state — the way an off-loop plan
// searcher gets a goroutine-local instance.
func (o *Optimizer) Clone() *Optimizer {
	return New(o.cat, o.lib, o.store, o.cpuType)
}

// implementations returns the library's implementations for a capability,
// memoized per library generation.
func (o *Optimizer) implementations(capability string) []*agents.Implementation {
	if o.implsByCap == nil || o.implsGen != o.lib.Gen() {
		o.implsByCap = make(map[string][]*agents.Implementation, 8)
		o.implsGen = o.lib.Gen()
	}
	if impls, ok := o.implsByCap[capability]; ok {
		return impls
	}
	impls := o.lib.Implementations(agents.Capability(capability))
	o.implsByCap[capability] = impls
	return impls
}

// profilesFor returns the store's profiles for an implementation, memoized
// per store generation.
func (o *Optimizer) profilesFor(impl string) []profiles.Profile {
	if o.profsByImpl == nil || o.profsGen != o.store.Gen() {
		o.profsByImpl = make(map[string][]profiles.Profile, 16)
		o.profsGen = o.store.Gen()
	}
	if profs, ok := o.profsByImpl[impl]; ok {
		return profs
	}
	profs := o.store.ForImplementation(impl)
	o.profsByImpl[impl] = profs
	return profs
}

// capDemand summarizes one capability's tasks in a DAG.
type capDemand struct {
	capability string
	tasks      int
	totalWork  float64
	avgWork    float64
	isLLM      bool
}

// Plan chooses a Decision per capability present in the graph.
func (o *Optimizer) Plan(g *dag.Graph, snap cluster.Snapshot, opts Options) (*Plan, error) {
	if !g.Frozen() {
		return nil, fmt.Errorf("optimizer: graph not frozen")
	}
	if opts.MaxPaths <= 0 {
		opts.MaxPaths = 1
	}
	demands := o.demands(g)
	// Hierarchy: LLM capabilities first (their engines reserve GPUs), then
	// by descending total work.
	sort.SliceStable(demands, func(i, j int) bool {
		if demands[i].isLLM != demands[j].isLLM {
			return demands[i].isLLM
		}
		if demands[i].totalWork != demands[j].totalWork {
			return demands[i].totalWork > demands[j].totalWork
		}
		return demands[i].capability < demands[j].capability
	})

	if o.availGPUs == nil {
		o.availGPUs = make(map[hardware.GPUType]int, 4)
	}
	clear(o.availGPUs)
	avail := availability{
		gpus:  o.availGPUs,
		cores: snap.TotalCPUCores,
	}
	for t, n := range snap.TotalGPUs {
		avail.gpus[t] = n
	}

	plan := &Plan{Constraint: opts.Constraint, Decisions: map[string]Decision{}}
	for _, d := range demands {
		dec, err := o.decide(d, avail, opts)
		if err != nil {
			return nil, err
		}
		if d.isLLM {
			// The engine holds its GPUs for the workflow's duration.
			avail.gpus[dec.Config.GPUType] -= dec.Config.GPUs
		}
		plan.Decisions[d.capability] = dec
		plan.EstCostUSD += dec.EstCostUSD
		plan.EstEnergyJ += dec.EstEnergyJ
		plan.EstLatencyS += dec.EstLatencyS
	}

	// Work-weighted quality.
	totalWork, weighted := 0.0, 0.0
	for _, d := range demands {
		dec := plan.Decisions[d.capability]
		totalWork += d.totalWork
		weighted += d.totalWork * dec.Quality
	}
	if totalWork > 0 {
		plan.EstQuality = weighted / totalWork
	}
	return plan, nil
}

// demands summarizes per-capability task demand. The returned slice aliases
// the optimizer's reusable demand arena; it is valid until the next Plan
// call. (Plan's subsequent sort fully orders it, so accumulation order does
// not affect the result.)
func (o *Optimizer) demands(g *dag.Graph) []capDemand {
	if o.demandIdx == nil {
		o.demandIdx = make(map[string]int, 8)
	}
	clear(o.demandIdx)
	llm := agents.LLMCapabilities()
	out := o.demandBuf[:0]
	for _, n := range g.Nodes() {
		i, ok := o.demandIdx[n.Capability]
		if !ok {
			i = len(out)
			o.demandIdx[n.Capability] = i
			out = append(out, capDemand{capability: n.Capability, isLLM: llm[agents.Capability(n.Capability)]})
		}
		out[i].tasks++
		out[i].totalWork += n.Work
	}
	for i := range out {
		out[i].avgWork = out[i].totalWork / float64(out[i].tasks)
	}
	o.demandBuf = out
	return out
}

// availability tracks remaining capacity during the greedy pass.
type availability struct {
	gpus  map[hardware.GPUType]int
	cores int
}

func (a availability) fits(cfg profiles.ResourceConfig) bool {
	if cfg.GPUs > 0 && a.gpus[cfg.GPUType] < cfg.GPUs {
		return false
	}
	return cfg.CPUCores <= a.cores
}

// maxParallel returns how many workers of cfg fit in the availability.
func (a availability) maxParallel(cfg profiles.ResourceConfig) int {
	k := math.MaxInt32
	if cfg.GPUs > 0 {
		k = min(k, a.gpus[cfg.GPUType]/cfg.GPUs)
	}
	if cfg.CPUCores > 0 {
		k = min(k, a.cores/cfg.CPUCores)
	}
	if k == math.MaxInt32 {
		return 0
	}
	return k
}

// candidate is one scored (impl, config, parallelism, paths) option.
type candidate struct {
	impl     string
	cfg      profiles.ResourceConfig
	parallel int
	paths    int
	latency  float64
	cost     float64
	energy   float64
	quality  float64
}

func (o *Optimizer) decide(d capDemand, avail availability, opts Options) (Decision, error) {
	if pin, ok := opts.Pinned[d.capability]; ok {
		return o.applyPin(d, avail, pin)
	}
	cands := o.enumerate(d, avail, opts)
	if len(cands) == 0 && opts.MinQuality > 0 && opts.RelaxFloor {
		// No implementation clears the floor: fall back to the best
		// quality available rather than failing the plan.
		relaxed := opts
		relaxed.MinQuality = 0
		all := o.enumerate(d, avail, relaxed)
		best := 0.0
		for _, c := range all {
			if c.quality > best {
				best = c.quality
			}
		}
		// In-place filter over the shared enumeration buffer (the write index
		// never passes the read index).
		cands = all[:0]
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
	o.pruneBuf = prunedominatedInto(o.pruneBuf[:0], cands)
	cands = o.pruneBuf
	best := pick(cands, opts.Constraint)
	return Decision{
		Capability:     d.capability,
		Implementation: best.impl,
		Config:         best.cfg,
		Parallelism:    best.parallel,
		ExecutionPaths: best.paths,
		EstLatencyS:    best.latency,
		EstCostUSD:     best.cost,
		EstEnergyJ:     best.energy,
		Quality:        best.quality,
	}, nil
}

func (o *Optimizer) applyPin(d capDemand, avail availability, pin Pin) (Decision, error) {
	prof, ok := o.store.Get(pin.Implementation, pin.Config)
	if !ok {
		return Decision{}, fmt.Errorf("optimizer: pinned %s/%v has no profile", pin.Implementation, pin.Config)
	}
	if prof.Capability != d.capability {
		return Decision{}, fmt.Errorf("optimizer: pinned %s provides %q, capability %q required",
			pin.Implementation, prof.Capability, d.capability)
	}
	if !avail.fits(pin.Config) {
		return Decision{}, fmt.Errorf("optimizer: pinned config %v does not fit the cluster", pin.Config)
	}
	k := pin.Parallelism
	if k <= 0 {
		k = min(d.tasks, avail.maxParallel(pin.Config))
		if k == 0 {
			k = 1
		}
	}
	paths := max(pin.ExecutionPaths, 1)
	c := o.score(d, prof, k, paths)
	return Decision{
		Capability:     d.capability,
		Implementation: pin.Implementation,
		Config:         pin.Config,
		Parallelism:    k,
		ExecutionPaths: paths,
		Pinned:         true,
		AllowScaling:   pin.AllowScaling,
		EstLatencyS:    c.latency,
		EstCostUSD:     c.cost,
		EstEnergyJ:     c.energy,
		Quality:        c.quality,
	}, nil
}

// enumerate produces scored candidates across implementations, configs,
// parallelism levels and (under MAX_QUALITY) execution paths. The returned
// slice aliases the optimizer's reusable enumeration buffer; it is valid
// until the next enumerate call.
func (o *Optimizer) enumerate(d capDemand, avail availability, opts Options) []candidate {
	out := o.enumBuf[:0]
	for _, im := range o.implementations(d.capability) {
		for _, prof := range o.profilesFor(im.Name) {
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
			// Parallelism ladder: 1, 2, 4, ... maxK (always include maxK).
			o.ladderBuf = appendParallelLadder(o.ladderBuf[:0], maxK)
			for _, k := range o.ladderBuf {
				paths := append(o.pathsBuf[:0], 1)
				if opts.Constraint == workflow.MaxQuality && opts.MaxPaths > 1 &&
					d.isLLM {
					for p := 2; p <= opts.MaxPaths; p *= 2 {
						paths = append(paths, p)
					}
				}
				o.pathsBuf = paths
				for _, p := range paths {
					out = append(out, o.score(d, prof, k, p))
				}
			}
		}
	}
	o.enumBuf = out
	return out
}

func parallelLadder(maxK int) []int { return appendParallelLadder(nil, maxK) }

// appendParallelLadder appends 1, 2, 4, ... maxK (always including maxK) to
// ks, letting enumerate reuse one ladder buffer across candidates.
func appendParallelLadder(ks []int, maxK int) []int {
	for k := 1; k < maxK; k *= 2 {
		ks = append(ks, k)
	}
	return append(ks, maxK)
}

// score estimates a stage's latency, cost, energy and quality under one
// candidate. Waves = ceil(tasks/k); each wave costs one per-task profile
// latency. Execution paths multiply per-task cost and energy, add a small
// synchronization latency overhead, and lift quality as independent
// attempts: q' = 1-(1-q)^paths.
func (o *Optimizer) score(d capDemand, prof profiles.Profile, k, paths int) candidate {
	perTask := prof.LatencyS(d.avgWork)
	waves := math.Ceil(float64(d.tasks) / float64(k))
	latency := waves * perTask
	costPerTask := prof.CostUSD(o.cat, o.cpuType, d.avgWork)
	energyPerTask := prof.EnergyJ(o.cat, o.cpuType, d.avgWork)
	quality := prof.Quality
	if paths > 1 {
		latency *= 1.05 // top-k selection barrier
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
	return prunedominatedInto(nil, cands)
}

// prunedominatedInto appends the non-dominated candidates to out (which must
// not alias cands: every element of cands is read for every dominance check).
func prunedominatedInto(out, cands []candidate) []candidate {
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
		if better(cand, best, c) {
			best = cand
		}
	}
	return best
}

func better(a, b candidate, c workflow.Constraint) bool {
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
	// Full tie: prefer the lexicographically smaller impl/config for
	// determinism.
	if a.impl != b.impl {
		return a.impl < b.impl
	}
	return a.cfg.String() < b.cfg.String()
}
