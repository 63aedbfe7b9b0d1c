package core

import (
	"maps"
	"math"
	"sort"

	"repro/internal/agents"
	"repro/internal/cluster"
	"repro/internal/dag"
	"repro/internal/optimizer"
	"repro/internal/profiles"
	"repro/internal/quality"
	"repro/internal/workflow"
)

// One re-plan verb: the paper's adaptive runtime (§3.2) re-runs the
// optimizer against current cluster state whenever conditions change, and
// every such re-plan in this package goes through replan. Its three callers
// keep only their policy — what to hold, which alternatives to swap in, and
// when to adopt:
//   - mid-flight reconfiguration (reconfig.go) holds the in-flight
//     capabilities and adopts past the hysteresis margin;
//   - fault degradation (faults.go) holds every other capability and adopts
//     the cheapest alternative that clears the job floor and re-plans;
//   - overload degradation (slo.go) holds only the user's pins at admission,
//     accumulates swaps under the tier floor and adopts them if cheaper.
// Every adopted re-plan marks the execution block unclean, so it is never
// recycled.

// remainingView is the execution's explicit remaining-DAG view: the frozen
// graph of not-yet-completed nodes, the capabilities that must keep their
// current binding (tasks in flight), and how many remaining tasks are free
// to rebind. The admission view is the full graph with inflight nil.
type remainingView struct {
	graph *dag.Graph
	// inflight marks capabilities with tasks executing right now — at the
	// next stage boundary they become rebindable, but not before.
	inflight map[string]bool
	// free counts remaining tasks on rebindable capabilities.
	free int
}

// remainingView snapshots the remaining DAG. Edges are dropped: the
// optimizer consumes only (capability, work) demand, and the execution keeps
// driving the original tracker — this graph exists purely to re-plan over.
func (ex *Execution) remainingView() *remainingView {
	rv := &remainingView{graph: dag.New(), inflight: map[string]bool{}}
	for _, n := range ex.tracker.RemainingNodes() {
		rv.graph.MustAddNode(*n)
		if st := ex.stageNamed(n.Capability); st != nil && st.inflight > 0 {
			rv.inflight[n.Capability] = true
		} else {
			rv.free++
		}
	}
	if err := rv.graph.Freeze(); err != nil {
		panic(err) // unreachable: no edges
	}
	return rv
}

// pinFromDecision renders a decision as an optimizer pin, so a re-plan can
// hold a capability to its current binding.
func pinFromDecision(d optimizer.Decision) optimizer.Pin {
	return optimizer.Pin{
		Implementation: d.Implementation,
		Config:         d.Config,
		Parallelism:    d.Parallelism,
		ExecutionPaths: d.ExecutionPaths,
		AllowScaling:   d.AllowScaling,
	}
}

// replan is one re-plan of a job's current decisions over a view, under the
// capacity class it was built against. Once searched off the loop it is
// read-only.
type replan struct {
	view *remainingView
	cur  *optimizer.Plan
	snap cluster.Snapshot
	// o is the candidate search: the job's options, with the held pins and
	// then the swaps in Pinned.
	o     optimizer.Options
	swaps int
	// floor is the chain-correctness floor a swap must clear (0 = none);
	// sq holds the current stage qualities with every swap so far.
	floor float64
	sq    quality.StageQuality
	// curObj is the current decisions' objective over the view.
	curObj float64
}

// replanResult is a re-plan's outcome: the candidate plan (nil on error) and
// its objective beside the current decisions' objective over the same view.
type replanResult struct {
	plan        *optimizer.Plan
	err         error
	obj, curObj float64
}

// newReplan builds a re-plan of cur over view. With holdAll every capability
// of the view keeps its current decision until swapped; otherwise the user's
// pins stand and capabilities with tasks in flight keep their decisions. The
// baseline over a remaining view is the current decisions re-scored under
// current capacity — infeasible (the fleet shrank from under the old plan)
// scores +Inf, so any feasible re-plan wins; at admission it is cur's own
// objective. Neither search goes through the plan cache: a remaining-DAG key
// is unique to one job's progress and would never be hit again, and a churn
// storm of one-shot inserts would wholesale-reset the cache out from under
// admission's structurally-identical jobs.
func (rt *Runtime) newReplan(view *remainingView, cur *optimizer.Plan, job workflow.Job, opts SubmitOptions, holdAll bool, floor float64) *replan {
	snap, _ := rt.capacityClass()
	r := &replan{view: view, cur: cur, snap: snap, o: planOptions(job, opts), floor: floor}
	pins := r.held(holdAll)
	r.curObj = cur.Objective(job.Constraint)
	if view.inflight != nil {
		base := r.o
		base.Pinned = pins
		if !holdAll {
			base.Pinned = r.held(true)
		}
		r.curObj = math.Inf(1)
		if p, err := rt.opt.Plan(view.graph, snap, base); err == nil {
			r.curObj = p.Objective(job.Constraint)
		}
	}
	r.o.Pinned = pins
	if floor > 0 {
		r.sq = make(quality.StageQuality, len(cur.Decisions))
		for cap, d := range cur.Decisions {
			r.sq[cap] = d.Quality
		}
	}
	return r
}

// held renders the pins a re-plan holds: every capability of the view at its
// current decision (all), or the user's pins and then every in-flight
// capability at its current decision.
func (r *replan) held(all bool) map[string]optimizer.Pin {
	pins := make(map[string]optimizer.Pin, r.view.graph.Len())
	if !all {
		maps.Copy(pins, r.o.Pinned)
	}
	for _, n := range r.view.graph.Nodes() {
		if _, ok := pins[n.Capability]; !ok && (all || r.view.inflight[n.Capability]) {
			pins[n.Capability] = pinFromDecision(r.cur.Decisions[n.Capability])
		}
	}
	return pins
}

// clears reports whether swapping a in for cap keeps chain correctness over
// the view at or above the floor, every earlier swap included.
func (r *replan) clears(cap string, a alternative) bool {
	if r.floor <= 0 {
		return true
	}
	prev := r.sq[cap]
	r.sq[cap] = a.quality
	ok := quality.ChainCorrectness(r.view.graph, r.sq) >= r.floor
	r.sq[cap] = prev
	return ok
}

// swap pins cap to alternative a for the next search.
func (r *replan) swap(cap string, a alternative) {
	r.o.Pinned[cap] = optimizer.Pin{Implementation: a.impl, Config: a.cfg}
	if r.sq != nil {
		r.sq[cap] = a.quality
	}
	r.swaps++
	// The floor was checked chain-wise (clears); a stage-wise floor here
	// would reject the very degradation this path exists to make.
	r.o.MinQuality = 0
}

// search runs the candidate re-plan on opt: the runtime's optimizer on the
// loop goroutine, a worker's clone off it.
func (r *replan) search(opt *optimizer.Optimizer) replanResult {
	res := replanResult{curObj: r.curObj}
	if res.plan, res.err = opt.Plan(r.view.graph, r.snap, r.o); res.err == nil {
		res.obj = res.plan.Objective(r.o.Constraint)
	}
	return res
}

// alternative is one implementation a degradation can swap in for a
// capability, on its cheapest profiled configuration for the work.
type alternative struct {
	impl                   string
	cfg                    profiles.ResourceConfig
	quality, cost, latency float64
}

// alternatives prices every registered implementation of cap for work on its
// cheapest profiled configuration that fits the snapshotted cluster, sorted
// cheapest-first; the sort is stable, so ties keep library order.
// Quarantined implementations are left out, except cur: its entry is the
// yardstick a degradation compares against.
func (rt *Runtime) alternatives(cap, cur string, work float64, snap cluster.Snapshot) []alternative {
	var alts []alternative
	for _, im := range rt.lib.Implementations(agents.Capability(cap)) {
		if im.Name != cur && rt.mgr.Quarantined(im.Name) {
			continue
		}
		a := alternative{impl: im.Name, cost: math.Inf(1)}
		for _, p := range rt.store.ForImplementation(im.Name) {
			if p.Capability != cap || !snapFits(snap, p.Config) {
				continue
			}
			if c := p.CostUSD(rt.cl.Catalog(), rt.cfg.CPUType, work); c < a.cost {
				a.cfg, a.quality, a.cost, a.latency = p.Config, p.Quality, c, p.LatencyS(work)
			}
		}
		if !math.IsInf(a.cost, 1) {
			alts = append(alts, a)
		}
	}
	sort.SliceStable(alts, func(i, j int) bool { return alts[i].cost < alts[j].cost })
	return alts
}

// snapFits reports whether a resource configuration could ever be placed on
// the snapshotted cluster (total capacity, not instantaneous free capacity —
// degradation pins must be plannable, not necessarily immediately free).
func snapFits(snap cluster.Snapshot, cfg profiles.ResourceConfig) bool {
	if cfg.GPUs > 0 && snap.TotalGPUs[cfg.GPUType] < cfg.GPUs {
		return false
	}
	return cfg.CPUCores <= snap.TotalCPUCores
}
