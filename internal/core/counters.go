package core

// Counters is the single declaration of a shard's additive counters: each is
// cumulative and monotone on a live runtime, and sums across shards. The
// Runtime holds one by value and every counting site increments it in place
// on the engine goroutine; SchedulerStats, the /v1/stats pool and shard rows
// and the router's cluster totals embed it, so the JSON tags here are the
// wire names. To add a counter: one field here, one line in Add, and the
// increment where it happens.
//
// Seven fields are kept by other owners and filled by Scheduler.Stats(),
// which overwrites the runtime's copy: BreakerTrips (cluster manager),
// KeyInternHits / KeyInternMisses (the runtime's interner) and the event
// engine's EventsProcessed, WheelEvents, OverflowEvents and CancelsLazy.
// Never increment those in place; the runtime's copy of them stays zero.
type Counters struct {
	// Off-loop admission: searches dispatched to the plan-search workers,
	// submissions deduped onto an identical in-flight search, and admissions
	// whose optimistic commit a capacity-class change invalidated (re-planned
	// inline).
	PlanSearches     int `json:"plan_searches"`
	SingleflightHits int `json:"singleflight_hits"`
	PlanConflicts    int `json:"plan_conflicts"`
	// Reconfiguration controller: running-job evaluations, adopted re-plans,
	// kept-current-plan skips and generation-drift conflicts. All zero with
	// the controller disabled.
	Reconfigs         int `json:"reconfigs"`
	ReconfigWins      int `json:"reconfig_wins"`
	ReconfigSkips     int `json:"reconfig_skips"`
	ReconfigConflicts int `json:"reconfig_conflicts"`
	// Fault/recovery: injected fault events (counted whether or not recovery
	// is enabled), task retries, jobs failed on the attempt budget or
	// deadline, adopted degradation re-plans, watchdog firings and
	// circuit-breaker trips. All zero with faults and recovery disabled.
	FaultsInjected    int `json:"faults_injected"`
	TaskRetries       int `json:"task_retries"`
	RetriesExhausted  int `json:"retries_exhausted"`
	DeadlinesExceeded int `json:"deadlines_exceeded"`
	Degradations      int `json:"degradations"`
	StageTimeouts     int `json:"stage_timeouts"`
	BreakerTrips      int `json:"breaker_trips"`
	// SLO/overload: submissions shed on the tenant queue bound or rejected on
	// the tenant budget, admissions launched on degraded cheaper plans,
	// completions classified against the tier latency target, and the
	// overload controller's transitions. All zero with SLO tiers disabled.
	SLOShed            int `json:"slo_shed"`
	SLOBudgetExhausted int `json:"slo_budget_exhausted"`
	SLODegradedAdmits  int `json:"slo_degraded_admits"`
	SLOMet             int `json:"slo_met"`
	SLOMissed          int `json:"slo_missed"`
	OverloadEnters     int `json:"overload_enters"`
	OverloadExits      int `json:"overload_exits"`
	// Allocation reuse: cache keys and report labels served from the runtime's
	// canonical intern table (hits) vs freshly allocated (misses), and
	// per-task scratch (workers, LLM-task barriers) recycled vs allocated
	// (hits stay zero under noReuse).
	KeyInternHits     uint64 `json:"key_intern_hits"`
	KeyInternMisses   uint64 `json:"key_intern_misses"`
	ScratchPoolHits   uint64 `json:"scratch_pool_hits"`
	ScratchPoolMisses uint64 `json:"scratch_pool_misses"`
	// Event engine: events fired, how schedules routed (near-future
	// timer-wheel buckets vs the far-future overflow heap), and cancels
	// handled as O(1) lazy mark-dead.
	EventsProcessed uint64 `json:"events_processed"`
	WheelEvents     uint64 `json:"wheel_events"`
	OverflowEvents  uint64 `json:"overflow_events"`
	CancelsLazy     uint64 `json:"cancels_lazy"`
}

// Add sums o into c, field by field.
func (c *Counters) Add(o Counters) {
	c.PlanSearches += o.PlanSearches
	c.SingleflightHits += o.SingleflightHits
	c.PlanConflicts += o.PlanConflicts
	c.Reconfigs += o.Reconfigs
	c.ReconfigWins += o.ReconfigWins
	c.ReconfigSkips += o.ReconfigSkips
	c.ReconfigConflicts += o.ReconfigConflicts
	c.FaultsInjected += o.FaultsInjected
	c.TaskRetries += o.TaskRetries
	c.RetriesExhausted += o.RetriesExhausted
	c.DeadlinesExceeded += o.DeadlinesExceeded
	c.Degradations += o.Degradations
	c.StageTimeouts += o.StageTimeouts
	c.BreakerTrips += o.BreakerTrips
	c.SLOShed += o.SLOShed
	c.SLOBudgetExhausted += o.SLOBudgetExhausted
	c.SLODegradedAdmits += o.SLODegradedAdmits
	c.SLOMet += o.SLOMet
	c.SLOMissed += o.SLOMissed
	c.OverloadEnters += o.OverloadEnters
	c.OverloadExits += o.OverloadExits
	c.KeyInternHits += o.KeyInternHits
	c.KeyInternMisses += o.KeyInternMisses
	c.ScratchPoolHits += o.ScratchPoolHits
	c.ScratchPoolMisses += o.ScratchPoolMisses
	c.EventsProcessed += o.EventsProcessed
	c.WheelEvents += o.WheelEvents
	c.OverflowEvents += o.OverflowEvents
	c.CancelsLazy += o.CancelsLazy
}

// TenantSLOStats is one tenant's SLO accounting snapshot; the JSON tags are
// the wire names of /v1/stats' tenant_slo rows. Its slo_met / slo_missed are
// the per-tenant breakdown of the Counters fields of the same wire names,
// declared beside them so each wire name lives in this one file.
type TenantSLOStats struct {
	Tenant string `json:"tenant"`
	Class  string `json:"class"`
	// Admitted counts submissions accepted into the queue; Shed and
	// BudgetExhausted count synchronous rejections; DegradedAdmits counts
	// admissions launched on a degraded cheaper plan.
	Admitted        int `json:"admitted"`
	Shed            int `json:"shed"`
	BudgetExhausted int `json:"budget_exhausted"`
	DegradedAdmits  int `json:"degraded_admits"`
	// SLOMet / SLOMissed classify completed jobs against the tier's
	// latency target (untracked when the target is 0).
	SLOMet    int `json:"slo_met"`
	SLOMissed int `json:"slo_missed"`
	// CostSpentUSD is the cumulative planned cost charged at launch.
	CostSpentUSD float64 `json:"cost_spent_usd"`
}

// Add folds another shard's row for the same tenant into t: the counts and
// spend sum, and the class is o's.
func (t *TenantSLOStats) Add(o TenantSLOStats) {
	t.Tenant, t.Class = o.Tenant, o.Class
	t.Admitted += o.Admitted
	t.Shed += o.Shed
	t.BudgetExhausted += o.BudgetExhausted
	t.DegradedAdmits += o.DegradedAdmits
	t.SLOMet += o.SLOMet
	t.SLOMissed += o.SLOMissed
	t.CostSpentUSD += o.CostSpentUSD
}
