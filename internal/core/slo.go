package core

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/optimizer"
	"repro/internal/planner"
	"repro/internal/workflow"
)

// SLO-tiered serving (see README "Overload and SLO tiers"): tenants carry an
// SLO class — a latency target, a planned-cost budget and a minimum quality
// floor — and the admission layer degrades gracefully instead of queueing
// unboundedly when demand exceeds the concurrency bound. The ladder has
// three rungs, applied in order as pressure grows:
//
//  1. admit — below the high watermark nothing changes; jobs queue and run
//     on their normal plans exactly as without this file.
//  2. degrade — above the high watermark (hysteresis: the controller only
//     disengages again below the low watermark) new jobs of degradable
//     tiers are admitted onto cheaper plan configurations, built through
//     the re-plan verb (replan.go) at admission time; entering overload also
//     kicks the PR-5 reconfiguration controller so running work re-plans
//     cheaper at its next stage boundary.
//  3. shed — per-tenant queue slots are bounded; a submission beyond the
//     bound (or beyond the tenant's cost budget) is rejected synchronously
//     with a typed JobError (shed_overload / budget_exhausted), which the
//     HTTP surface maps to 429 + Retry-After. The queue can never grow
//     without limit and a shed job can never strand: it was never enqueued.
//
// With Config.SLO nil every hook below is nil-guarded and behavior is
// bit-identical to a build without this file.

// SLOClass is one service tier.
type SLOClass struct {
	// Name identifies the tier ("gold", "silver", "bronze").
	Name string
	// Rank orders tiers, 0 = most protected. Purely descriptive today:
	// protection is expressed through Degradable and MaxQueue below.
	Rank int
	// LatencyTargetS is the submit→done attainment target (0 = untracked);
	// settle-time accounting compares against it for the per-tenant
	// SLOMet/SLOMissed counters.
	LatencyTargetS float64
	// CostBudgetUSD bounds a tenant's cumulative admitted planned cost
	// (EstCostUSD charged at launch); beyond it submissions are rejected
	// with budget_exhausted. 0 = unlimited. The meter resets with the
	// scheduler, so under the serving pool it is windowed by shard recycle.
	CostBudgetUSD float64
	// MinQuality floors degraded admissions chain-wise (0 = the job's own
	// floor). It is enforced even under SubmitOptions.RelaxFloor: the tier
	// floor is the operator's bound, not the job's preference.
	MinQuality float64
	// MaxQueue bounds this tenant's jobs waiting in the admission queue;
	// a submission finding the bound reached is shed with shed_overload.
	MaxQueue int
	// Degradable tiers are admitted onto cheaper degraded plans while the
	// overload controller is engaged; gold is not.
	Degradable bool
	// MaxDegradeLatencyX bounds how much slower (profile latency over the
	// capability's work) a degraded implementation may be than the one it
	// replaces (default 4×). Overload is an occupancy problem: admitting a
	// 60× slower implementation to save cost would hold an admission slot
	// longer and make the queue worse, so slow candidates are skipped even
	// when they are cheaper.
	MaxDegradeLatencyX float64
}

// DefaultSLOClasses returns the built-in gold/silver/bronze tiers.
func DefaultSLOClasses() map[string]SLOClass {
	return map[string]SLOClass{
		"gold":   {Name: "gold", Rank: 0, LatencyTargetS: 120, MaxQueue: 32},
		"silver": {Name: "silver", Rank: 1, LatencyTargetS: 300, MaxQueue: 16, Degradable: true, MaxDegradeLatencyX: 4},
		"bronze": {Name: "bronze", Rank: 2, LatencyTargetS: 600, MaxQueue: 8, Degradable: true, MaxDegradeLatencyX: 8},
	}
}

// SLOConfig configures SLO tiers (Config.SLO). Zero fields take the defaults
// noted.
type SLOConfig struct {
	// Classes defines the tiers (nil = DefaultSLOClasses()).
	Classes map[string]SLOClass
	// TenantTiers maps tenants to class names; unmapped tenants take
	// DefaultClass (default "silver").
	TenantTiers  map[string]string
	DefaultClass string
	// HighWatermark engages the overload controller when admission pressure
	// — (running + queued) / maxConcurrent — reaches it (default 2.0);
	// LowWatermark disengages it again at or below (default 1.0). The band
	// between them is the hysteresis: inside it the controller holds state.
	HighWatermark float64
	LowWatermark  float64
	// QueueBound > 0 overrides every class's MaxQueue; BudgetUSD > 0
	// overrides every class's CostBudgetUSD (the serving pool's flat
	// per-tenant knobs).
	QueueBound int
	BudgetUSD  float64
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Classes == nil {
		c.Classes = DefaultSLOClasses()
	}
	if c.DefaultClass == "" {
		c.DefaultClass = "silver"
	}
	if c.HighWatermark <= 0 {
		c.HighWatermark = 2.0
	}
	if c.LowWatermark <= 0 {
		c.LowWatermark = 1.0
	}
	if c.QueueBound > 0 || c.BudgetUSD > 0 {
		classes := make(map[string]SLOClass, len(c.Classes))
		for name, cl := range c.Classes {
			if c.QueueBound > 0 {
				cl.MaxQueue = c.QueueBound
			}
			if c.BudgetUSD > 0 {
				cl.CostBudgetUSD = c.BudgetUSD
			}
			classes[name] = cl
		}
		c.Classes = classes
	}
	return c
}

// overloadController is the watermark hysteresis: it engages ("degraded
// admissions") when pressure reaches high and disengages only when pressure
// falls back to low — observations inside the (low, high) band never change
// state, so the controller cannot flap within one hysteresis band. It is
// deterministic: state is a pure function of the observation sequence.
type overloadController struct {
	high, low float64
	degraded  bool
}

// observe feeds one pressure sample and reports whether the state changed.
func (c *overloadController) observe(pressure float64) bool {
	if !c.degraded && pressure >= c.high {
		c.degraded = true
		return true
	}
	if c.degraded && pressure <= c.low {
		c.degraded = false
		return true
	}
	return false
}

// tenantSLO is one tenant's live SLO accounting (owned by the loop
// goroutine, like every scheduler counter).
type tenantSLO struct {
	class  string
	queued int // live gauge: this tenant's jobs in the admission queue
	spent  float64
	stats  TenantSLOStats
}

// sloState hangs off the scheduler when the runtime's Config.SLO is set.
type sloState struct {
	cfg     SLOConfig
	ctrl    overloadController
	tenants map[string]*tenantSLO
}

// Validate checks the configuration as the scheduler would see it (defaults
// applied): the watermarks must form a hysteresis band and every referenced
// class must exist. New calls it.
func (c SLOConfig) Validate() error {
	c = c.withDefaults()
	if c.LowWatermark >= c.HighWatermark {
		return fmt.Errorf("SLO low watermark %.3g must be below the high watermark %.3g",
			c.LowWatermark, c.HighWatermark)
	}
	if _, ok := c.Classes[c.DefaultClass]; !ok {
		return fmt.Errorf("unknown default SLO class %q", c.DefaultClass)
	}
	for tenant, name := range c.TenantTiers {
		if _, ok := c.Classes[name]; !ok {
			return fmt.Errorf("tenant %q mapped to unknown SLO class %q", tenant, name)
		}
	}
	return nil
}

// OverloadActive reports whether the overload controller is currently
// engaged (always false with SLO tiers disabled).
func (s *Scheduler) OverloadActive() bool {
	return s.slo != nil && s.slo.ctrl.degraded
}

func (sl *sloState) tenant(name, class string) *tenantSLO {
	ts := sl.tenants[name]
	if ts == nil {
		ts = &tenantSLO{class: class}
		ts.stats.Tenant = name
		sl.tenants[name] = ts
	}
	ts.class = class
	ts.stats.Class = class
	return ts
}

// classFor resolves a submission's tier: explicit per-job override, then the
// tenant mapping, then the default class. Unknown overrides are a
// validation error (the HTTP layer pre-validates; this is the safety net).
func (sl *sloState) classFor(tenant, override string) (SLOClass, error) {
	name := override
	if name == "" {
		name = sl.cfg.TenantTiers[tenant]
	}
	if name == "" {
		name = sl.cfg.DefaultClass
	}
	cl, ok := sl.cfg.Classes[name]
	if !ok {
		return SLOClass{}, fmt.Errorf("core: unknown SLO class %q", name)
	}
	return cl, nil
}

// pressure is the overload controller's admission-pressure signal: queued
// plus running jobs, normalized by the concurrency bound. 1.0 = the
// executor is exactly full with an empty queue; 2.0 = a full backlog the
// size of capacity is waiting behind it.
func (s *Scheduler) pressure() float64 {
	return float64(s.running+len(s.queue)) / float64(s.maxConcurrent)
}

// updateOverload feeds the controller (nil-safe). Entering overload is a
// capacity event: kick the reconfiguration controller (itself nil-safe) so
// already-running lower-tier work can re-plan cheaper at its next stage
// boundary while new admissions degrade.
func (s *Scheduler) updateOverload() {
	if s.slo == nil {
		return
	}
	if !s.slo.ctrl.observe(s.pressure()) {
		return
	}
	if !s.slo.ctrl.degraded {
		s.rt.counters.OverloadExits++
		return
	}
	s.rt.counters.OverloadEnters++
	s.scheduleReconfig()
}

// sloAdmit is the Submit-time gate: it resolves the submission's class and
// sheds it — synchronously, before a handle or JobID exists — when the
// tenant's cost budget is exhausted or its queue bound is reached. The
// decision is deterministic: it depends only on scheduler state, which is a
// pure function of the submission/completion sequence in simulated time.
func (s *Scheduler) sloAdmit(tenant string, opts SubmitOptions) (string, error) {
	cl, err := s.slo.classFor(tenant, opts.SLOClass)
	if err != nil {
		return "", err
	}
	ts := s.slo.tenant(tenant, cl.Name)
	if cl.CostBudgetUSD > 0 && ts.spent >= cl.CostBudgetUSD {
		ts.stats.BudgetExhausted++
		s.rt.counters.SLOBudgetExhausted++
		return "", &JobError{Code: CodeBudgetExhausted, Op: "admission",
			Err: fmt.Errorf("core: tenant %q spent $%.4f of its $%.4f budget", tenant, ts.spent, cl.CostBudgetUSD)}
	}
	if cl.MaxQueue > 0 && ts.queued >= cl.MaxQueue {
		ts.stats.Shed++
		s.rt.counters.SLOShed++
		return "", &JobError{Code: CodeShedOverload, Op: "admission",
			Err: fmt.Errorf("core: tenant %q queue bound %d reached under overload", tenant, cl.MaxQueue)}
	}
	ts.queued++
	ts.stats.Admitted++
	return cl.Name, nil
}

// sloStarted moves a handle's accounting from queued to launched, charging
// the plan's estimated cost against the tenant budget (ex is nil when the
// launch itself failed).
func (s *Scheduler) sloStarted(h *Handle, ex *Execution) {
	ts := s.slo.tenants[h.tenant]
	if ts == nil {
		return
	}
	if ex != nil && ex.plan != nil {
		ts.spent += ex.plan.EstCostUSD
		ts.stats.CostSpentUSD = ts.spent
	}
}

// sloSettled classifies a completed job against its tier's latency target.
func (s *Scheduler) sloSettled(h *Handle) {
	if h.status != JobDone {
		return
	}
	ts := s.slo.tenants[h.tenant]
	if ts == nil {
		return
	}
	cl, ok := s.slo.cfg.Classes[h.sloClass]
	if !ok || cl.LatencyTargetS <= 0 {
		return
	}
	if s.se.Now().Sub(h.submittedAt).Seconds() <= cl.LatencyTargetS {
		ts.stats.SLOMet++
		s.rt.counters.SLOMet++
	} else {
		ts.stats.SLOMissed++
		s.rt.counters.SLOMissed++
	}
}

// sloDequeued drops a handle from its tenant's queued gauge (at start, or
// when a queued job is canceled).
func (s *Scheduler) sloDequeued(h *Handle) {
	if ts := s.slo.tenants[h.tenant]; ts != nil && ts.queued > 0 {
		ts.queued--
	}
}

// sloDegradeEligible reports whether a handle about to start should be
// offered a degraded plan: the controller is engaged and the tier opted in.
func (s *Scheduler) sloDegradeEligible(h *Handle) bool {
	if !s.slo.ctrl.degraded {
		return false
	}
	cl, ok := s.slo.cfg.Classes[h.sloClass]
	return ok && cl.Degradable
}

// startDegraded is the overload admission path: resolve the decomposition
// and plan exactly as the normal path would (committed search result when
// still valid, inline otherwise), then try to swap the plan for a cheaper
// degraded one before launch.
func (s *Scheduler) startDegraded(h *Handle) (*Execution, error) {
	rt := s.rt
	var decomp *planner.Result
	var plan *optimizer.Plan
	if h.prepared.plan != nil && h.prepared.valid(rt) {
		decomp, plan = h.prepared.decomp, h.prepared.plan
	} else {
		if h.prepared.plan != nil {
			rt.counters.PlanConflicts++
		}
		var err error
		if decomp, err = rt.decompose(h.job); err != nil {
			return nil, err
		}
		if plan, err = rt.planFor(decomp.Graph, planOptions(h.job, h.opts)); err != nil {
			return nil, err
		}
	}
	floor := h.job.MinQuality
	maxLatX := 4.0
	if cl, ok := s.slo.cfg.Classes[h.sloClass]; ok {
		if cl.MinQuality > 0 {
			floor = cl.MinQuality
		}
		if cl.MaxDegradeLatencyX > 0 {
			maxLatX = cl.MaxDegradeLatencyX
		}
	}
	degraded := rt.degradePlanForOverload(decomp, plan, h.job, h.opts, floor, maxLatX)
	if degraded != nil {
		plan = degraded
		rt.counters.SLODegradedAdmits++
		if ts := s.slo.tenants[h.tenant]; ts != nil {
			ts.stats.DegradedAdmits++
		}
	}
	ex, err := rt.launch(h.job, h.opts, decomp, plan)
	if ex != nil {
		ex.unclean = degraded != nil
	}
	return ex, err
}

// degradePlanForOverload builds an admission-time degraded plan through the
// re-plan verb: for each capability (most expensive first, user pins
// untouched) it walks the capability's alternatives cheapest-first and swaps
// in the first one that is cheaper than the current implementation, no more
// than maxLatX slower on the capability's work (profile-level,
// like-for-like), and keeps chain correctness at or above the floor; then it
// re-plans once with the accumulated swaps. The result is adopted only when
// its estimated cost strictly beats the undegraded plan; nil means launch
// the original. Everything iterates in sorted order, so the outcome is
// deterministic for a given scheduler state.
func (rt *Runtime) degradePlanForOverload(decomp *planner.Result, plan *optimizer.Plan, job workflow.Job, opts SubmitOptions, floor, maxLatX float64) *optimizer.Plan {
	r := rt.newReplan(&remainingView{graph: decomp.Graph}, plan, job, opts, false, floor)
	work := decomp.Graph.CapabilityWork()
	caps := slices.Collect(maps.Keys(plan.Decisions))
	sort.Slice(caps, func(i, j int) bool {
		di, dj := plan.Decisions[caps[i]], plan.Decisions[caps[j]]
		if di.EstCostUSD != dj.EstCostUSD {
			return di.EstCostUSD > dj.EstCostUSD
		}
		return caps[i] < caps[j]
	})
	for _, cap := range caps {
		if _, userPinned := opts.Pinned[cap]; userPinned || work[cap] <= 0 {
			continue
		}
		cur := plan.Decisions[cap].Implementation
		alts := rt.alternatives(cap, cur, work[cap], r.snap)
		i := slices.IndexFunc(alts, func(a alternative) bool { return a.impl == cur })
		if i < 0 {
			continue
		}
		// Cheapest-first: everything from the current implementation on is
		// no cheaper than it.
		for _, a := range alts[:i] {
			if a.cost >= alts[i].cost {
				break
			}
			if a.latency <= alts[i].latency*maxLatX && r.clears(cap, a) {
				r.swap(cap, a)
				break
			}
		}
	}
	if r.swaps == 0 {
		return nil
	}
	res := r.search(rt.opt)
	if res.err != nil || res.plan.EstCostUSD >= plan.EstCostUSD {
		return nil
	}
	return res.plan
}

// SLOTenants returns per-tenant SLO accounting sorted by tenant (nil with
// SLO tiers disabled).
func (s *Scheduler) SLOTenants() []TenantSLOStats {
	if s.slo == nil {
		return nil
	}
	out := make([]TenantSLOStats, 0, len(s.slo.tenants))
	for _, ts := range s.slo.tenants {
		out = append(out, ts.stats)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
