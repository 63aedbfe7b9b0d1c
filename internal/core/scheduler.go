package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workflow"
)

// The scheduler/executor split: Runtime (runtime.go) is the executor — it
// plans one job and drives its DAG against the shared cluster the moment
// Submit is called. Scheduler is the admission layer in front of it: jobs
// enter an admission queue, are released into the executor under a
// concurrency bound with fair-share ordering across tenants, and are tracked
// through first-class handles (submit → JobID, status, result, cancel). Many
// jobs admitted through one Scheduler share a single Runtime and therefore
// multiplex its serving engines, plan/decomposition caches and worker pools —
// the paper's sharing thesis applied to the service path.
//
// Like the Runtime, the Scheduler is single-threaded: every method must run
// on the goroutine driving the simulation engine (directly, or via
// sim.Loop.Post in daemon mode). In daemon mode the expensive half of
// admission — the configuration search — can be moved off that goroutine
// onto a plan-search worker pool with optimistic snapshot commit; see
// Config.Loop and plansearch.go. The serial path is unchanged when the
// pool is not enabled.

// ErrCanceled is the terminal error of a canceled job.
var ErrCanceled = errors.New("core: job canceled")

// JobID identifies a job admitted through a Scheduler.
type JobID int

// JobStatus is a handle's lifecycle state.
type JobStatus int

// Job lifecycle states.
const (
	JobQueued JobStatus = iota
	JobRunning
	JobDone
	JobFailed
	JobCanceled
)

// String renders the status.
func (s JobStatus) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	case JobCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("JobStatus(%d)", int(s))
	}
}

// Terminal reports whether the status is final.
func (s JobStatus) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// Handle tracks one job from admission to completion.
type Handle struct {
	s      *Scheduler
	id     JobID
	tenant string
	job    workflow.Job
	opts   SubmitOptions

	status      JobStatus
	submittedAt sim.Time
	startedAt   sim.Time
	exec        *Execution
	err         error
	// obs is the handle's one observer slot (see JobObserver): start, finish
	// and the attempt path each make a single call on it.
	obs JobObserver

	// planReady gates admission: with off-loop plan search enabled, a queued
	// handle only becomes eligible once its search commits (true from the
	// start for serial schedulers and cache hits). prepared carries the
	// committed decomposition + plan for start; the zero value (no plan) means
	// plan inline.
	planReady bool
	prepared  preparedPlan
	// reconfigInflight marks a running job with an off-loop re-plan between
	// dispatch and commit. At most one search per job is in flight: a second
	// would compare its hysteresis baseline against decisions the first may
	// have already replaced (rebalance passes move no generation, so the
	// commit-time generation check cannot catch that staleness).
	reconfigInflight bool
	// sloClass is the resolved SLO tier ("" with SLO tiers disabled); see
	// slo.go.
	sloClass string
}

// SLOClass returns the handle's resolved SLO tier ("" with tiers disabled).
func (h *Handle) SLOClass() string { return h.sloClass }

// ID returns the job's scheduler-scoped identifier.
func (h *Handle) ID() JobID { return h.id }

// Tenant returns the submitting tenant.
func (h *Handle) Tenant() string { return h.tenant }

// Status returns the current lifecycle state.
func (h *Handle) Status() JobStatus { return h.status }

// Err returns the terminal error of failed or canceled jobs.
func (h *Handle) Err() error { return h.err }

// Execution returns the underlying execution (nil until the job is released
// from the admission queue, still nil if planning rejected it, and nil again
// once the handle's owner has called Release).
func (h *Handle) Execution() *Execution { return h.exec }

// Release tells the runtime that the handle's one owner — whoever holds and
// observes it — has copied out all it wants of the job's execution: the runtime
// may reuse the execution's memory for a later job, and Execution, Report and
// Attempts return nil from here on. A no-op before the job is terminal and after
// the first call; JobDone may call it. Whoever keeps reading an execution never
// calls it: an unreleased execution stays readable as long as it is reachable.
func (h *Handle) Release() {
	if ex := h.exec; ex != nil && h.status.Terminal() {
		h.exec = nil
		ex.release()
	}
}

// Report returns the result once the job is done.
func (h *Handle) Report() *report.Report {
	if h.exec == nil || !h.exec.Done() {
		return nil
	}
	return h.exec.Report()
}

// QueueDelayS is simulated time spent in the admission queue.
func (h *Handle) QueueDelayS() float64 {
	if h.status == JobQueued {
		return h.s.se.Now().Sub(h.submittedAt).Seconds()
	}
	return h.startedAt.Sub(h.submittedAt).Seconds()
}

// JobObserver receives a job's lifecycle transitions on the engine goroutine:
// JobStarted when it leaves the admission queue (never for a job canceled
// while queued), JobAttempt per recorded task failure, in order (see
// faults.go), and JobDone exactly once when it turns terminal — done, failed
// and canceled alike. The serving pool's job record implements it, so a job's
// transitions reach the record by one interface call each, with no closure.
type JobObserver interface {
	JobStarted(h *Handle)
	JobAttempt(h *Handle, a AttemptRecord)
	JobDone(h *Handle)
}

// Observe installs obs as the handle's observer. In the turn Submit returned
// the job is still queued, so obs sees every transition; installed later it
// sees those still to come. The slot holds one: whoever needs several
// listeners fans out from its own observer.
func (h *Handle) Observe(obs JobObserver) {
	if h.obs != nil {
		panic("core: Observe on a handle that already has an observer")
	}
	h.obs = obs
}

// Attempts returns the job's recorded attempt history (nil before start or
// when no task ever failed).
func (h *Handle) Attempts() []AttemptRecord {
	if h.exec == nil {
		return nil
	}
	return h.exec.Attempts()
}

// Cancel terminates the job: queued jobs leave the admission queue without
// running; running jobs stop (their in-flight simulated work is abandoned).
// It reports whether the job was still cancelable.
func (h *Handle) Cancel() bool {
	switch h.status {
	case JobQueued:
		h.s.removeQueued(h)
		h.s.canceled++
		h.startedAt = h.s.se.Now()
		h.finish(JobCanceled, ErrCanceled)
		return true
	case JobRunning:
		return h.exec.Cancel()
	default:
		return false
	}
}

func (h *Handle) finish(st JobStatus, err error) {
	h.status = st
	h.err = err
	if h.obs != nil {
		h.obs.JobDone(h)
	}
}

// SchedulerStats is a point-in-time view of the admission layer: the
// runtime's Counters plus the lifecycle counts and the live gauges.
// PlanSearchInflight counts searches between dispatch and commit,
// BreakerOpen the circuit breakers not currently closed, and OverloadActive
// the SLO overload controller's state.
type SchedulerStats struct {
	Submitted   int
	Completed   int
	Failed      int
	Canceled    int
	Running     int
	Queued      int
	PeakRunning int
	Counters
	PlanSearchInflight int
	BreakerOpen        int
	OverloadActive     bool
}

// Scheduler admits jobs into a shared Runtime.
type Scheduler struct {
	se *sim.Engine
	rt *Runtime
	// maxConcurrent bounds simultaneously-running jobs; further submissions
	// wait in the admission queue.
	maxConcurrent int

	nextID  JobID
	queue   []*Handle
	running int
	// runningSet holds the currently-admitted handles (≤ maxConcurrent of
	// them); the retention layer reads it to keep the telemetry watermark
	// behind every live job's execution window.
	runningSet map[JobID]*Handle
	// inFlight counts running jobs per tenant; admitted counts jobs ever
	// admitted per tenant. Together they order fair-share admission.
	inFlight map[string]int
	admitted map[string]int

	completed   int
	failed      int
	canceled    int
	peakRunning int

	// search is the off-loop plan-search pool (nil for serial schedulers);
	// planWorkers its size.
	search      *planSearch
	planWorkers int

	// reconfig is the mid-flight reconfiguration controller (nil when
	// disabled; see reconfig.go).
	reconfig *reconfigState

	// slo is the SLO-tier / overload-control state (nil when disabled; see
	// slo.go). Every hook is nil-guarded so the disabled path is untouched.
	slo *sloState

	// pumpFn is the method value s.pump materialized once: every submit and
	// settle defers it, and a fresh closure per Defer showed up in the
	// allocation profile.
	pumpFn func()
}

// NewScheduler builds the admission layer over a runtime and wires the
// runtime's Config features in a fixed order — plan search, reconfiguration,
// SLO tiers — as hook registration order decides event order. With
// Config.Loop set, call StopPlanSearch once the loop has drained.
func NewScheduler(se *sim.Engine, rt *Runtime, maxConcurrent int) *Scheduler {
	if maxConcurrent <= 0 {
		panic("core: non-positive scheduler concurrency limit")
	}
	s := &Scheduler{
		se:            se,
		rt:            rt,
		maxConcurrent: maxConcurrent,
		runningSet:    map[JobID]*Handle{},
		inFlight:      map[string]int{},
		admitted:      map[string]int{},
	}
	s.pumpFn = s.pump
	if rt.cfg.Loop != nil {
		s.startPlanSearch()
	}
	if rt.cfg.Reconfig != nil {
		s.startReconfig()
	}
	if rt.cfg.SLO != nil {
		cfg := rt.cfg.SLO.withDefaults()
		s.slo = &sloState{
			cfg:     cfg,
			ctrl:    overloadController{high: cfg.HighWatermark, low: cfg.LowWatermark},
			tenants: map[string]*tenantSLO{},
		}
	}
	return s
}

// Runtime exposes the executor the scheduler feeds.
func (s *Scheduler) Runtime() *Runtime { return s.rt }

// Submit validates and enqueues a job for a tenant, returning its handle.
// Validation errors return synchronously; planning and execution errors
// surface on the handle.
func (s *Scheduler) Submit(tenant string, job workflow.Job, opts SubmitOptions) (*Handle, error) {
	if tenant == "" {
		return nil, fmt.Errorf("core: empty tenant")
	}
	if err := job.Validate(); err != nil {
		return nil, err
	}
	var sloClass string
	if s.slo != nil {
		// The SLO admission gate sheds synchronously — before a JobID or
		// handle exists — so a rejected submission can never strand: there
		// is nothing to drain.
		var err error
		if sloClass, err = s.sloAdmit(tenant, opts); err != nil {
			return nil, err
		}
	}
	s.nextID++
	h := &Handle{
		s:           s,
		id:          s.nextID,
		tenant:      tenant,
		job:         job,
		opts:        opts,
		status:      JobQueued,
		submittedAt: s.se.Now(),
		planReady:   true,
		sloClass:    sloClass,
	}
	if s.search != nil {
		// Off-loop admission: if the shard has already planned this exact
		// shape under the current capacity class, reuse it and stay eligible
		// immediately; otherwise dispatch a search — reusing a cached
		// decomposition when only the plan half missed — and hold the handle
		// back from admission until the search commits.
		jk, prep := s.rt.probePrepared(job, opts)
		if prep.plan != nil {
			h.prepared = prep
		} else {
			h.planReady = false
			s.search.dispatch(h, jk, prep.decomp)
		}
	}
	s.queue = append(s.queue, h)
	s.updateOverload()
	s.se.Defer(s.pumpFn)
	return h, nil
}

// pump releases queued jobs into the executor up to the concurrency limit,
// fair-share: the tenant with the fewest in-flight jobs goes first, ties
// broken by the least total service received (jobs ever admitted), then
// submission order — so one tenant's burst cannot starve others. Jobs whose
// off-loop plan search has not committed yet are not eligible; their commit
// re-pumps.
func (s *Scheduler) pump() {
	// Plan-environment movement without a capacity/rebalance hook (profile
	// recalibration, library registration) is caught here, on the admission
	// path's natural cadence.
	s.checkReconfigGens()
	for s.running < s.maxConcurrent && len(s.queue) > 0 {
		idx := s.pickNext()
		if idx < 0 {
			return
		}
		h := s.queue[idx]
		s.queue = slices.Delete(s.queue, idx, idx+1) // and clear the tail slot: it would pin the handle
		s.start(h)
	}
}

// pickNext returns the index of the next admissible queued job, or -1 when
// every queued job is still waiting on its plan search.
func (s *Scheduler) pickNext() int {
	best := -1
	key := func(i int) (int, int) {
		t := s.queue[i].tenant
		return s.inFlight[t], s.admitted[t]
	}
	for i := 0; i < len(s.queue); i++ {
		if !s.queue[i].planReady {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		fi, ai := key(i)
		fb, ab := key(best)
		if fi < fb || (fi == fb && ai < ab) {
			best = i
		}
	}
	return best
}

func (s *Scheduler) start(h *Handle) {
	h.status = JobRunning
	h.startedAt = s.se.Now()
	s.running++
	s.runningSet[h.id] = h
	if s.running > s.peakRunning {
		s.peakRunning = s.running
	}
	s.inFlight[h.tenant]++
	s.admitted[h.tenant]++
	if h.obs != nil {
		h.obs.JobStarted(h)
	}
	var ex *Execution
	var err error
	if s.slo != nil && s.sloDegradeEligible(h) {
		// Overload admission: resolve the plan as usual, then try to swap
		// it for a degraded cheaper one before launch (slo.go).
		ex, err = s.startDegraded(h)
	} else if h.prepared.plan != nil && h.prepared.valid(s.rt) {
		// Optimistic commit holds at launch time too: the searched (or
		// cache-probed) plan is still valid for the current capacity class —
		// launch without re-planning.
		ex, err = s.rt.launch(h.job, h.opts, h.prepared.decomp, h.prepared.plan)
	} else {
		if h.prepared.plan != nil {
			// The fleet changed while the job waited in the admission queue:
			// the plan committed earlier is stale. Re-plan inline against
			// current state, exactly like the serial path.
			s.rt.counters.PlanConflicts++
		}
		ex, err = s.rt.Submit(h.job, h.opts)
	}
	h.prepared = preparedPlan{}
	if s.slo != nil {
		s.sloDequeued(h)
		s.sloStarted(h, ex)
	}
	if err != nil {
		s.settle(h, err)
		return
	}
	h.exec = ex
	// The execution settles its handle through this back-pointer. launch never
	// finishes an execution in the same turn (the planning charge is always
	// deferred), so no finish is missed.
	ex.owner = h
}

// settle retires a released job (completed, failed or canceled mid-run) and
// re-pumps the admission queue. The pump must stay deferred: the observer may
// release the execution's block inside h.finish, under the frames of the event
// that finished it, and a pump here could launch the next job into that block.
func (s *Scheduler) settle(h *Handle, err error) {
	s.running--
	delete(s.runningSet, h.id)
	s.inFlight[h.tenant]--
	switch {
	case errors.Is(err, ErrCanceled):
		s.canceled++
		h.finish(JobCanceled, err)
	case err != nil:
		s.failed++
		h.finish(JobFailed, err)
	default:
		s.completed++
		h.finish(JobDone, nil)
	}
	if s.slo != nil {
		s.sloSettled(h)
		s.updateOverload()
	}
	s.se.Defer(s.pumpFn)
}

// removeQueued drops a handle from the admission queue.
func (s *Scheduler) removeQueued(h *Handle) {
	for i, q := range s.queue {
		if q == h {
			s.queue = slices.Delete(s.queue, i, i+1)
			if s.slo != nil {
				s.sloDequeued(h)
				s.updateOverload()
			}
			return
		}
	}
}

// QueueDepth returns jobs waiting for admission.
func (s *Scheduler) QueueDepth() int { return len(s.queue) }

// MinRunningStartS returns the earliest start time among currently-running
// jobs, and whether any job is running. The retention layer clamps its
// compaction watermark to this so a live job's execution window (which
// report.Finalize integrates from its start) is never compacted from under
// it. Queued jobs need no clamp: they start at admission time, which is
// always at or after any watermark chosen from the past.
func (s *Scheduler) MinRunningStartS() (float64, bool) {
	if len(s.runningSet) == 0 {
		return 0, false
	}
	min := math.Inf(1)
	for _, h := range s.runningSet {
		if t := h.startedAt.Seconds(); t < min {
			min = t
		}
	}
	return min, true
}

// Running returns currently-admitted jobs.
func (s *Scheduler) Running() int { return s.running }

// Stats returns the runtime's counters with the lifecycle counts and gauges,
// filling in the counters other layers keep: breaker trips (cluster manager),
// key-intern hits and misses (the runtime's interner) and the event engine's.
func (s *Scheduler) Stats() SchedulerStats {
	st := SchedulerStats{
		Submitted:   int(s.nextID),
		Completed:   s.completed,
		Failed:      s.failed,
		Canceled:    s.canceled,
		Running:     s.running,
		Queued:      len(s.queue),
		PeakRunning: s.peakRunning,
		Counters:    s.rt.counters,
	}
	if s.search != nil {
		st.PlanSearchInflight = len(s.search.inflight)
	}
	st.BreakerOpen, st.BreakerTrips = s.rt.mgr.BreakerStats()
	st.KeyInternHits, st.KeyInternMisses = s.rt.keys.Stats()
	st.EventsProcessed, st.WheelEvents = s.se.Processed(), s.se.WheelEvents()
	st.OverflowEvents, st.CancelsLazy = s.se.OverflowEvents(), s.se.CancelsLazy()
	st.OverloadActive = s.OverloadActive()
	return st
}
