package core

import (
	"maps"
	"math"
	"sort"

	"repro/internal/optimizer"
)

// Mid-flight workflow reconfiguration (the paper's §3.2 runtime-adaptation
// claim): workflows are declarative, so the system is free to re-bind the
// *remaining* stages of a running job to different models and hardware as
// conditions change — the Whisper→Llama GPU-rebalance example generalized.
//
// The controller lives on the scheduler: whenever the plan environment moves
// (cluster.CapacityGen from fleet churn, the profile-store or library
// generations, or a clustermgr rebalance pass), it re-runs the optimizer over
// the remaining DAG of every running job and adopts the new plan only if it
// strictly improves the job's declared objective by a hysteresis margin.
// Re-binding happens at stage boundaries only: completed stages are pinned
// (their accounting and the paper's telemetry integrals are untouched), and
// capabilities with tasks in flight keep their current decision — mid-stage
// migration was rejected (see ROADMAP Decisions). With off-loop plan search
// enabled, the re-plan runs on the PR-4 worker pool against an immutable
// snapshot and commits optimistically; generation drift at commit discards
// the result (a conflict), exactly like admission.

// ReconfigConfig tunes the scheduler's reconfiguration controller.
type ReconfigConfig struct {
	// Hysteresis is the minimum relative improvement of the remaining-stage
	// objective before a re-plan is adopted (default 0.05 = 5%): a new plan
	// must beat re-scoring the current decisions over the same remaining DAG
	// by this margin, or churn would thrash bindings for noise-level wins.
	Hysteresis float64
}

// reconfigState is the controller's loop-owned state.
type reconfigState struct {
	cfg     ReconfigConfig
	pending bool
	// last* record the plan-environment generations of the latest completed
	// evaluation pass, so cheap checks (pump) can detect movement the
	// capacity and rebalance hooks do not cover.
	lastCapGen   uint64
	lastStoreGen int
	lastLibGen   int
}

// startReconfig attaches the reconfiguration controller (see NewScheduler).
// With off-loop plan search the re-plans share the search pool, otherwise
// they run inline on the loop.
func (s *Scheduler) startReconfig() {
	cfg := *s.rt.cfg.Reconfig
	if cfg.Hysteresis <= 0 {
		cfg.Hysteresis = 0.05
	}
	s.reconfig = &reconfigState{
		cfg:          cfg,
		lastCapGen:   s.rt.cl.CapacityGen(),
		lastStoreGen: s.rt.store.Gen(),
		lastLibGen:   s.rt.lib.Gen(),
	}
	// Capacity-class churn (AddVM / preemption / harvest resize) and engine
	// rebalancing both re-trigger evaluation. The hooks fire mid-mutation, so
	// they only schedule the pass; Defer runs it once the cluster is settled.
	s.rt.cl.OnCapacityChange(func() { s.scheduleReconfig() })
	s.rt.mgr.OnRebalance(func() { s.scheduleReconfig() })
}

// scheduleReconfig arranges one evaluation pass at the current simulated
// instant (deduplicating bursts of triggers).
func (s *Scheduler) scheduleReconfig() {
	rc := s.reconfig
	if rc == nil || rc.pending {
		return
	}
	rc.pending = true
	s.se.Defer(s.evalReconfig)
}

// checkReconfigGens triggers an evaluation when the plan environment moved
// without a hook firing (profile recalibration, library registration). Cheap
// — three integer compares — so pump can afford it.
func (s *Scheduler) checkReconfigGens() {
	rc := s.reconfig
	if rc == nil || rc.pending {
		return
	}
	if rc.lastCapGen != s.rt.cl.CapacityGen() ||
		rc.lastStoreGen != s.rt.store.Gen() || rc.lastLibGen != s.rt.lib.Gen() {
		s.scheduleReconfig()
	}
}

// evalReconfig is one controller pass: every running job is considered in
// admission order (JobID), so evaluation order — and with it engine placement
// — is deterministic for a fixed event history.
func (s *Scheduler) evalReconfig() {
	rc := s.reconfig
	rc.pending = false
	rc.lastCapGen = s.rt.cl.CapacityGen()
	rc.lastStoreGen = s.rt.store.Gen()
	rc.lastLibGen = s.rt.lib.Gen()
	ids := make([]int, 0, len(s.runningSet))
	for id := range s.runningSet {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		s.considerReconfig(s.runningSet[JobID(id)])
	}
}

// decisionEquivalent reports whether two decisions bind the same execution
// configuration. Estimates and pin provenance are ignored: a re-plan over
// the remaining DAG re-derives estimates from remaining work, and pinning an
// in-flight capability marks its decision Pinned without changing what runs.
func decisionEquivalent(a, b optimizer.Decision) bool {
	return a.Implementation == b.Implementation &&
		a.Config == b.Config &&
		a.Parallelism == b.Parallelism &&
		max(a.ExecutionPaths, 1) == max(b.ExecutionPaths, 1)
}

// considerReconfig evaluates one running job: re-plan its remaining DAG with
// the in-flight capabilities held, and adopt the result if it clears the
// hysteresis bar. With the search pool attached the candidate search runs
// off-loop and commits optimistically; otherwise it runs inline right here.
// The all-held baseline is cheap (applyPin per capability, no enumeration);
// the candidate search pays full price only on the rare capacity events that
// trigger evaluation.
func (s *Scheduler) considerReconfig(h *Handle) {
	ex := h.exec
	if ex == nil || ex.done || h.reconfigInflight {
		return
	}
	rv := ex.remainingView()
	if rv.free == 0 || rv.graph.Len() == 0 {
		return
	}
	s.rt.counters.Reconfigs++
	r := s.rt.newReplan(rv, ex.plan, h.job, h.opts, false, 0)
	if s.search != nil {
		h.reconfigInflight = true
		s.search.dispatchReconfig(h, r)
		return
	}
	s.finishReconfig(h, r.search(s.rt.opt))
}

// finishReconfig applies the hysteresis test and adopts a winning plan.
func (s *Scheduler) finishReconfig(h *Handle, res replanResult) {
	ex := h.exec
	margin := s.reconfig.cfg.Hysteresis
	if ex == nil || ex.done || res.err != nil ||
		!(res.obj < res.curObj && res.curObj-res.obj >= margin*math.Abs(res.curObj)) {
		s.rt.counters.ReconfigSkips++
		return
	}
	changed, err := ex.adoptPlan(res.plan)
	if err != nil || changed == 0 {
		s.rt.counters.ReconfigSkips++
		return
	}
	s.rt.counters.ReconfigWins++
}

// adoptPlan re-binds the execution's remaining stages to newPlan's decisions
// at the current stage boundaries. Capabilities with tasks in flight, with no
// remaining work, or absent from newPlan keep their current binding; engine
// refs move two-phase (ensure new, rebind, release old) so a failure midway
// leaves the execution exactly as it was. Returns how many capabilities were
// rebound.
func (ex *Execution) adoptPlan(newPlan *optimizer.Plan) (int, error) {
	remaining := ex.tracker.RemainingCapabilityWork()
	var changed []string
	for _, cap := range sortedCaps(newPlan.Decisions) {
		cur, ok := ex.plan.Decisions[cap]
		if !ok || remaining[cap] == 0 {
			continue
		}
		if decisionEquivalent(cur, newPlan.Decisions[cap]) {
			continue
		}
		if st := ex.stageNamed(cap); st != nil && st.inflight > 0 {
			// The stage left its boundary between planning and adoption
			// (off-loop search latency); its binding waits for the next pass.
			continue
		}
		changed = append(changed, cap)
	}
	if len(changed) == 0 {
		return 0, nil
	}

	// Phase 1: acquire engine refs for newly engine-served decisions before
	// touching anything, so an EnsureEngine failure aborts cleanly.
	var acquired []string
	rollback := func() {
		for _, name := range acquired {
			ex.rt.releaseEngineRef(name)
		}
	}
	for _, cap := range changed {
		nd := newPlan.Decisions[cap]
		if !ex.engineServed(cap, nd) {
			continue
		}
		name, err := ex.acquireEngineRef(cap, nd, "re-planned")
		if err != nil {
			rollback()
			return 0, err
		}
		acquired = append(acquired, name)
	}

	// Phase 2: swap the plan (a copy — cached plans are shared by pointer
	// across executions and must never be mutated), rebind the affected
	// stages and hand back the refs the replaced decisions held. Every
	// changed stage freezes (beginRebind) before any binding swaps: tearing
	// one stage down releases allocations the cluster manager re-grants
	// synchronously, and an unfrozen sibling's pump would start a task under
	// a binding this very adoption is about to replace.
	merged := &optimizer.Plan{
		Constraint: ex.plan.Constraint,
		Decisions:  make(map[string]optimizer.Decision, len(ex.plan.Decisions)),
	}
	for cap, d := range ex.plan.Decisions {
		merged.Decisions[cap] = d
	}
	for _, cap := range changed {
		if st := ex.stageNamed(cap); st != nil {
			st.beginRebind()
		}
	}
	// The report's labels are the plan's shared map until a job's decisions
	// first diverge from it.
	ex.rep.Decisions = maps.Clone(ex.rep.Decisions)
	for _, cap := range changed {
		old := ex.plan.Decisions[cap]
		nd := newPlan.Decisions[cap]
		merged.Decisions[cap] = nd
		if st := ex.stageNamed(cap); st != nil {
			st.finishRebind(nd)
		}
		if ex.engineServed(cap, old) {
			if spec, ok := engineSpecFor(old.Implementation); ok {
				ex.dropEngineRef(spec.Name)
			}
		}
		ex.rep.Decisions[cap] = string(nd.AppendLabel(nil)) + " (reconfigured)"
	}
	// Re-derive the plan-level estimates from the merged decisions so a
	// reconfigured job's report describes the bindings it actually ran
	// (cost/energy/latency sum what each decision was last planned over;
	// quality is work-weighted over the full DAG, so it is exact for the
	// current bindings). Summation follows sorted capability order — float
	// accumulation must not depend on map iteration.
	capWork := ex.tracker.Graph().CapabilityWork()
	totalWork, weighted := 0.0, 0.0
	for _, cap := range sortedCaps(merged.Decisions) {
		d := merged.Decisions[cap]
		merged.EstCostUSD += d.EstCostUSD
		merged.EstEnergyJ += d.EstEnergyJ
		merged.EstLatencyS += d.EstLatencyS
		totalWork += capWork[cap]
		weighted += capWork[cap] * d.Quality
	}
	if totalWork > 0 {
		merged.EstQuality = weighted / totalWork
	}
	ex.rep.Quality = merged.EstQuality
	ex.heldEngines = append(ex.heldEngines, acquired...)
	ex.plan = merged
	ex.reconfigs++
	ex.unclean = true
	return len(changed), nil
}

// dropEngineRef removes one recorded ref on the named engine and releases it.
func (ex *Execution) dropEngineRef(name string) {
	for i, held := range ex.heldEngines {
		if held == name {
			ex.heldEngines = append(ex.heldEngines[:i], ex.heldEngines[i+1:]...)
			ex.rt.releaseEngineRef(name)
			return
		}
	}
}
