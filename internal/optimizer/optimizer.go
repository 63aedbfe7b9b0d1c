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
// (the dominant stage first), and LLM-served capabilities are decided first
// because their engines reserve GPUs that other stages then cannot use.
//
// Deciding one capability is a single pass: every (profile, parallelism,
// paths) option is estimated in place and compared against the best so far
// under the constraint's lexicographic key (better). Nothing is collected and
// nothing is pruned. The Pareto prune of §3.3(c) is implied by the pick
// rather than performed: a candidate dominated on (latency, cost, energy,
// -quality) is no better than its dominator on every component of every
// constraint's key and worse on one, so it can never be the pick, and the
// first-best of the whole walk is the pick of the Pareto front. The
// enumerate → prune → pick search this replaced lives on in oracle_test.go,
// where TestSearchMatchesEnumeratePrunePick holds the two to the same
// Decision, bit for bit.
package optimizer

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

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
// An Optimizer carries per-instance scratch state (the demand arena and a
// generation-checked view of the library's and store's profiles), so a single
// instance must not run Plan concurrently from multiple goroutines; concurrent
// searchers each take their own via Clone.
type Optimizer struct {
	cat     *hardware.Catalog
	lib     *agents.Library
	store   *profiles.Store
	cpuType hardware.CPUType

	// profsByCap memoizes, per capability, every profile the search walks —
	// the library's implementations in name order, each one's profiles in the
	// store's config order — with the profile's price and power beside it. It
	// is dropped when the library or store generation moves.
	profsByCap map[string][]pricedProfile
	implsGen   int
	profsGen   int
	// Per-plan arena scratch, reset (not reallocated) at every Plan call:
	// demand accumulation and the availability GPU map.
	demandBuf []capDemand
	availGPUs map[hardware.GPUType]int
}

// pricedProfile is a profile (in the memo's own copy of the store's list)
// with the two constants every estimate under it multiplies by: the config's
// hourly price and the execution's attributable power, both functions of the
// profile and the immutable catalog.
type pricedProfile struct {
	*profiles.Profile
	hourlyUSD, powerW float64
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

// profilesFor returns the profiles a search for capability walks, in search
// order, memoized per library and store generation.
func (o *Optimizer) profilesFor(capability string) []pricedProfile {
	if o.profsByCap == nil || o.implsGen != o.lib.Gen() || o.profsGen != o.store.Gen() {
		o.profsByCap = make(map[string][]pricedProfile, 8)
		o.implsGen, o.profsGen = o.lib.Gen(), o.store.Gen()
	}
	profs, ok := o.profsByCap[capability]
	if !ok {
		for _, im := range o.lib.Implementations(agents.Capability(capability)) {
			// The memo keeps the store's defensive copy: entries point into it.
			ps := o.store.ForImplementation(im.Name)
			for i := range ps {
				if p := &ps[i]; p.Capability == capability {
					profs = append(profs, pricedProfile{p, p.Config.HourlyUSD(o.cat, o.cpuType), p.PowerW(o.cat, o.cpuType)})
				}
			}
		}
		o.profsByCap[capability] = profs
	}
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
	slices.SortStableFunc(demands, func(a, b capDemand) int {
		if a.isLLM != b.isLLM {
			if a.isLLM {
				return -1
			}
			return 1
		}
		if c := cmp.Compare(b.totalWork, a.totalWork); c != 0 {
			return c
		}
		return strings.Compare(a.capability, b.capability)
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

	plan := &Plan{Constraint: opts.Constraint, Decisions: make(map[string]Decision, len(demands))}
	totalWork, weighted := 0.0, 0.0 // work-weighted quality
	for i := range demands {
		d := &demands[i]
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
		totalWork += d.totalWork
		weighted += d.totalWork * dec.Quality
	}
	if totalWork > 0 {
		plan.EstQuality = weighted / totalWork
	}
	return plan, nil
}

// demands summarizes per-capability task demand, one entry per capability
// slot of the frozen graph (sorted capability order; Plan's sort then fully
// orders them). The returned slice aliases the optimizer's reusable demand
// arena; it is valid until the next Plan call.
func (o *Optimizer) demands(g *dag.Graph) []capDemand {
	llm := agents.LLMCapabilities()
	out := slices.Grow(o.demandBuf[:0], g.CapSlots())[:g.CapSlots()]
	for s := range out {
		c := g.SlotCapability(s)
		out[s] = capDemand{capability: c, isLLM: llm[agents.Capability(c)]}
	}
	for i := range g.Len() {
		d := &out[g.CapSlot(i)]
		d.tasks++
		d.totalWork += g.NodeAt(i).Work
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

// maxParallel returns how many workers of cfg fit in the availability (0 for
// a config that does not fit at all).
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

func (c *candidate) decision(capability string) Decision {
	return Decision{
		Capability:     capability,
		Implementation: c.impl,
		Config:         c.cfg,
		Parallelism:    c.parallel,
		ExecutionPaths: c.paths,
		EstLatencyS:    c.latency,
		EstCostUSD:     c.cost,
		EstEnergyJ:     c.energy,
		Quality:        c.quality,
	}
}

func (o *Optimizer) decide(d *capDemand, avail availability, opts Options) (Decision, error) {
	if pin, ok := opts.Pinned[d.capability]; ok {
		return o.applyPin(d, avail, pin)
	}
	best, ok := o.search(d, avail, opts, false)
	if !ok && opts.MinQuality > 0 && opts.RelaxFloor {
		// No implementation clears the floor: fall back to the best
		// quality available rather than failing the plan.
		best, ok = o.search(d, avail, opts, true)
	}
	if !ok {
		return Decision{}, fmt.Errorf("optimizer: no feasible configuration for capability %q (quality floor %.2f)",
			d.capability, opts.MinQuality)
	}
	return best.decision(d.capability), nil
}

func (o *Optimizer) applyPin(d *capDemand, avail availability, pin Pin) (Decision, error) {
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
	c := candidate{impl: pin.Implementation, cfg: pin.Config}
	perTask{
		latency: prof.LatencyS(d.avgWork),
		cost:    prof.CostUSD(o.cat, o.cpuType, d.avgWork),
		energy:  prof.EnergyJ(o.cat, o.cpuType, d.avgWork),
		quality: prof.Quality,
	}.stage(&c, d.tasks, k, max(pin.ExecutionPaths, 1))
	dec := c.decision(d.capability)
	dec.Pinned, dec.AllowScaling = true, pin.AllowScaling
	return dec, nil
}

// perTask is what one task of a demand takes under one profile; a stage's
// estimates at any parallelism and path count are these scaled.
type perTask struct{ latency, cost, energy, quality float64 }

// stage writes into c the estimates of a stage of tasks under k workers and
// paths execution paths. Waves = ceil(tasks/k); each wave costs one per-task
// latency. Execution paths multiply per-task cost and energy, add a small
// synchronization latency overhead, and lift quality as independent attempts:
// q' = 1-(1-q)^paths. Cost, energy and quality do not depend on k.
func (t perTask) stage(c *candidate, tasks, k, paths int) {
	c.parallel, c.paths = k, paths
	c.latency = math.Ceil(float64(tasks)/float64(k)) * t.latency
	c.quality = t.quality
	if paths > 1 {
		c.latency *= 1.05 // top-k selection barrier
		c.quality = 1 - math.Pow(1-t.quality, float64(paths))
	}
	c.cost = t.cost * float64(tasks) * float64(paths)
	c.energy = t.energy * float64(tasks) * float64(paths)
}

// search walks every (profile, parallelism, paths) option for d once — the
// profiles that fit and clear the floor, the parallelism ladder 1, 2, 4, …
// maxK (always including maxK) and, for an LLM capability under MAX_QUALITY,
// the paths ladder 1, 2, 4, … MaxPaths — and returns the constraint-optimal
// one; among equals the first walked wins. Relaxed ignores the floor and
// ranks by quality before the constraint: the best quality available, then
// the pick among those. ok is false when nothing is feasible.
func (o *Optimizer) search(d *capDemand, avail availability, opts Options, relaxed bool) (best candidate, ok bool) {
	maxPaths := 1
	if opts.Constraint == workflow.MaxQuality && d.isLLM {
		maxPaths = opts.MaxPaths
	}
	profs := o.profilesFor(d.capability)
	for i := range profs {
		p := &profs[i]
		if !relaxed && opts.MinQuality > 0 && p.Quality < opts.MinQuality {
			continue
		}
		maxK := min(d.tasks, avail.maxParallel(p.Config))
		if maxK < 1 {
			continue
		}
		// Profile.CostUSD and EnergyJ, with their constants read once.
		t := perTask{latency: p.LatencyS(d.avgWork), quality: p.Quality}
		t.cost = p.hourlyUSD * t.latency / 3600
		t.energy = p.powerW * t.latency
		cur := candidate{impl: p.Implementation, cfg: p.Config}
		for k := 1; ; k *= 2 {
			k = min(k, maxK)
			for paths := 1; paths <= maxPaths; paths *= 2 {
				t.stage(&cur, d.tasks, k, paths)
				var wins bool
				switch {
				case relaxed && cur.quality != best.quality:
					wins = cur.quality > best.quality // 0 until something is kept
				case !ok:
					wins = true
				default:
					wins = better(&cur, &best, opts.Constraint)
				}
				if wins {
					best, ok = cur, true
				}
			}
			if k == maxK {
				break
			}
		}
	}
	return best, ok
}

// better orders candidates by the constraint's lexicographic key, then by
// implementation and config string for determinism. A candidate dominated on
// (latency, cost, energy, -quality) is worse than its dominator under every
// constraint's key, so the first-best of a walk is the pick of its Pareto
// front: the prune of §3.3(c) is implied, not performed.
func better(a, b *candidate, c workflow.Constraint) bool {
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
	// Full tie: prefer the lexicographically smaller impl/config string.
	if a.impl != b.impl {
		return a.impl < b.impl
	}
	if a.cfg == b.cfg {
		return false
	}
	var sa, sb [40]byte
	return bytes.Compare(a.cfg.AppendTo(sa[:0]), b.cfg.AppendTo(sb[:0])) < 0
}
