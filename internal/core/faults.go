package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Failure recovery (see README "Failure handling"): with Config.Recovery a
// failed task is not a terminal job error but a *capacity event* — the task
// backs off (capped exponential, deterministic in sim-time), the failure
// kicks the PR-5 reconfiguration controller so the re-plan can move the
// remaining stages off the unhealthy binding, and the retry re-resolves its
// stage when the backoff fires, landing on whatever binding is current by
// then. Attempt budgets and per-job deadlines bound the damage; repeated
// failures of one capability degrade the job to a cheaper implementation
// through the re-plan verb (replan.go; quality floor respected); the cluster
// manager's circuit breaker quarantines flapping implementations between
// jobs. With recovery disabled every path below is unreachable and behavior
// is bit-identical to a build without this file.

// ErrorCode is a machine-readable classification of a job's terminal error,
// stable across releases (the job API's error_code field).
type ErrorCode string

// Job error codes.
const (
	// CodeRetriesExhausted: a task failed more than the attempt budget.
	CodeRetriesExhausted ErrorCode = "retries_exhausted"
	// CodeDeadlineExceeded: the job outlived its deadline.
	CodeDeadlineExceeded ErrorCode = "deadline_exceeded"
	// CodeWindowCompacted: telemetry retention compacted the job's window.
	CodeWindowCompacted ErrorCode = "window_compacted"
	// CodeCanceled: the job was canceled.
	CodeCanceled ErrorCode = "canceled"
	// CodeTaskFailed: a task failed with recovery disabled.
	CodeTaskFailed ErrorCode = "task_failed"
	// CodeShedOverload: the submission was shed at admission — the tenant's
	// bounded queue was full under overload. Retry after backing off.
	CodeShedOverload ErrorCode = "shed_overload"
	// CodeBudgetExhausted: the submission was rejected at admission — the
	// tenant's SLO-class cost budget is spent.
	CodeBudgetExhausted ErrorCode = "budget_exhausted"
	// CodeNodeDown: the node holding the job left the cluster and its drain
	// deadline expired before the job finished. Queued work is rerouted to
	// surviving nodes; only jobs already running on the departed node
	// surface this code.
	CodeNodeDown ErrorCode = "node_down"
	// CodeInternal: any other failure (planning, placement, validation).
	CodeInternal ErrorCode = "internal"
)

// JobError is a typed terminal job error: a stable code, the operation (task
// ID or "job") and the underlying cause, preserved as a chain.
type JobError struct {
	Code ErrorCode
	Op   string
	Err  error
}

// Error renders the chain.
func (e *JobError) Error() string {
	if e.Err == nil {
		return fmt.Sprintf("core: %s: %s", e.Op, e.Code)
	}
	return fmt.Sprintf("core: %s: %s: %v", e.Op, e.Code, e.Err)
}

// Unwrap exposes the cause for errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// ErrorCodeOf classifies any job error into its stable code ("" for nil).
func ErrorCodeOf(err error) ErrorCode {
	if err == nil {
		return ""
	}
	var je *JobError
	if errors.As(err, &je) {
		return je.Code
	}
	if errors.Is(err, ErrCanceled) {
		return CodeCanceled
	}
	var wc *report.WindowCompactedError
	if errors.As(err, &wc) {
		return CodeWindowCompacted
	}
	return CodeInternal
}

// FaultPolicy tunes failure recovery. Zero fields take the defaults noted;
// JobDeadlineS and StageTimeoutS stay off at zero.
type FaultPolicy struct {
	// MaxAttempts is the per-task attempt budget (default 4): the n-th
	// failure of one task with n >= MaxAttempts fails the job with
	// retries_exhausted.
	MaxAttempts int
	// BackoffBaseS is the first retry delay (default 0.5s); it doubles per
	// attempt up to BackoffCapS (default 8s), the cap applying after
	// jitter. JitterFrac (default 0.2) multiplies the delay by a
	// deterministic 1+[0,JitterFrac) drawn from the execution's seeded
	// stream — decorrelating retries across jobs without wall-clock
	// randomness.
	BackoffBaseS float64
	BackoffCapS  float64
	JitterFrac   float64
	// StageTimeoutS arms a watchdog per worker task: a task in flight
	// longer than this is cut short and treated as failed (0 = off).
	StageTimeoutS float64
	// JobDeadlineS bounds a job's total runtime from launch; exceeding it
	// fails the job with deadline_exceeded (0 = off).
	JobDeadlineS float64
	// DegradeAfter is how many failures one capability accumulates before
	// the execution tries a cheaper implementation for it (default 3).
	DegradeAfter int
	// BreakerThreshold consecutive failures of an implementation open its
	// circuit breaker for BreakerCooldownS seconds (defaults 3 and 20;
	// BreakerThreshold < 0 disables breakers).
	BreakerThreshold int
	BreakerCooldownS float64
	// Seed drives the jitter stream (offset per execution ID).
	Seed int64
}

func (p FaultPolicy) withDefaults() FaultPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BackoffBaseS <= 0 {
		p.BackoffBaseS = 0.5
	}
	if p.BackoffCapS <= 0 {
		p.BackoffCapS = 8
	}
	if p.JitterFrac < 0 {
		p.JitterFrac = 0
	} else if p.JitterFrac == 0 {
		p.JitterFrac = 0.2
	}
	if p.DegradeAfter <= 0 {
		p.DegradeAfter = 3
	}
	if p.BreakerThreshold == 0 {
		p.BreakerThreshold = 3
	}
	if p.BreakerCooldownS <= 0 {
		p.BreakerCooldownS = 20
	}
	return p
}

// backoffFor computes the attempt-th retry delay: base·2^(attempt-1),
// jittered multiplicatively by u ∈ [0,1), then capped — so the schedule is
// deterministic for a fixed jitter stream and never exceeds the cap.
func backoffFor(p FaultPolicy, attempt int, u float64) float64 {
	d := p.BackoffBaseS * math.Pow(2, float64(attempt-1))
	d *= 1 + p.JitterFrac*u
	if d > p.BackoffCapS {
		d = p.BackoffCapS
	}
	return d
}

// AttemptRecord is one entry of a job's attempt history: a task failure and
// the retry (or terminal) decision taken.
type AttemptRecord struct {
	AtS            float64
	Task           string
	Capability     string
	Implementation string
	// Attempt numbers the failures of this task (1 = first failure).
	Attempt int
	// BackoffS is the scheduled retry delay; 0 when the failure was
	// terminal (budget exhausted).
	BackoffS float64
	Err      string
}

// maxAttemptLog bounds per-execution attempt history (the API surfaces it
// per job; an unbounded log under a hot fault trace would grow without
// limit).
const maxAttemptLog = 32

// Inject applies one replayed fault event against this scheduler's runtime,
// resolving the victim deterministically from the event's pick. Returns
// whether a victim existed (a fault landing on an idle system is a no-op).
// Injection is independent of recovery: with recovery disabled the faults
// still land, and a failed task is then a terminal job error.
func (s *Scheduler) Inject(ev workload.FaultEvent) bool {
	ok := false
	switch ev.Kind {
	case workload.FaultEngineCrash:
		ok = s.rt.mgr.CrashEngine(ev.Pick, ev.DurationS)
	case workload.FaultWorkerLoss:
		ok = s.rt.cl.FailAlloc(ev.Pick)
	case workload.FaultStageTimeout:
		ok = s.stallTask(ev.Pick, ev.DurationS)
	case workload.FaultCallError:
		ok = s.rt.mgr.FailNextCall(ev.Pick)
	}
	if ok {
		s.rt.counters.FaultsInjected++
	}
	return ok
}

// stallTask extends one in-flight worker task's completion by d seconds — a
// hung stage call. Victims are collected in deterministic order: running
// jobs by ID, stages by capability, workers in pool order.
func (s *Scheduler) stallTask(pick, d float64) bool {
	ids := make([]int, 0, len(s.runningSet))
	for id := range s.runningSet {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	var victims []*worker
	for _, id := range ids {
		ex := s.runningSet[JobID(id)].exec
		if ex == nil || ex.done {
			continue
		}
		for i := range ex.stages {
			for _, w := range ex.stages[i].workers {
				if w.busy && w.doneEv.Pending() {
					victims = append(victims, w)
				}
			}
		}
	}
	if len(victims) == 0 {
		return false
	}
	idx := int(pick * float64(len(victims)))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(victims) {
		idx = len(victims) - 1
	}
	return victims[idx].stall(d)
}

// --- execution-side recovery -------------------------------------------------

// initRecovery sets up per-execution recovery state at launch (no-op when
// recovery is disabled, keeping the default path untouched).
func (ex *Execution) initRecovery() {
	rc := ex.rt.recovery
	if rc == nil {
		return
	}
	ex.attempts = map[int32]int{}
	ex.capFails = map[string]int{}
	ex.degraded = map[string]bool{}
	ex.retryEvs = map[sim.Event]bool{}
	ex.recRng = rand.New(rand.NewSource(rc.Seed + int64(ex.id)))
	if rc.JobDeadlineS > 0 {
		ex.deadlineEv = *ex.rt.se.After(sim.Duration(rc.JobDeadlineS), func() {
			ex.rt.counters.DeadlinesExceeded++
			ex.finish(&JobError{Code: CodeDeadlineExceeded, Op: "job",
				Err: fmt.Errorf("core: job deadline %.0fs exceeded", rc.JobDeadlineS)})
		})
	}
}

// cancelRecovery drops the execution's pending recovery events at finish:
// the deadline timer and every scheduled retry (their nodes die with the
// job). Cancellation order over the map is irrelevant — Cancel removes
// events eagerly and remaining heap order is (time, seq) regardless.
func (ex *Execution) cancelRecovery() {
	ex.deadlineEv.Cancel()
	for ev := range ex.retryEvs {
		ev.Cancel()
	}
	ex.retryEvs = nil
}

// taskFailed routes one task failure. The caller has already unwound its
// execution context (inflight decremented, tracer span ended, worker state
// cleared); the node is tracker-running. With recovery disabled the failure
// is terminal; otherwise the task backs off and retries on whatever binding
// its capability has when the backoff fires.
func (st *stage) taskFailed(node int32, cause error) {
	ex := st.ex
	if ex.done {
		return
	}
	if err := ex.tracker.FailAt(node); err != nil {
		panic(err)
	}
	ex.unclean = true
	id := string(ex.graph.NodeAt(int(node)).ID)
	rc := ex.rt.recovery
	if rc == nil {
		ex.finish(&JobError{Code: CodeTaskFailed, Op: id, Err: cause})
		return
	}
	ex.rt.mgr.ReportOutcome(st.dec.Implementation, false)
	ex.capFails[st.cap]++
	// A failure is a capacity event: the owner's reconfiguration controller,
	// if it has one, can move the remaining stages off the unhealthy binding
	// while the failed task waits out its backoff.
	if h := ex.owner; h != nil {
		h.s.scheduleReconfig()
	}
	n := ex.attempts[node] + 1
	ex.attempts[node] = n
	if n >= rc.MaxAttempts {
		ex.rt.counters.RetriesExhausted++
		ex.logAttempt(id, st, n, 0, cause)
		ex.finish(&JobError{Code: CodeRetriesExhausted, Op: id, Err: cause})
		return
	}
	ex.rt.counters.TaskRetries++
	ex.retries++
	backoff := backoffFor(*rc, n, ex.recRng.Float64())
	ex.logAttempt(id, st, n, backoff, cause)
	// Back through the tracker (Fail returned the node to ready); it stays
	// "running" during the backoff so the remaining-DAG view still counts
	// its work, but it sits in no queue and holds no inflight slot — the
	// stage is at a boundary and reconfiguration may rebind it meanwhile.
	if err := ex.tracker.StartAt(node); err != nil {
		panic(err)
	}
	ex.maybeDegrade(st.cap)
	ex.scheduleRetry(node, backoff)
}

// scheduleRetry re-enqueues the node after delayS, re-resolving its stage at
// fire time (the binding may have been reconfigured or degraded during the
// backoff). A quarantined implementation defers the retry by the breaker
// cooldown without burning an attempt — bounded, because the breaker
// half-opens once its cooldown elapses.
func (ex *Execution) scheduleRetry(node int32, delayS float64) {
	var ev sim.Event
	ev = *ex.rt.se.After(sim.Duration(delayS), func() {
		delete(ex.retryEvs, ev)
		if ex.done {
			return
		}
		st := &ex.stages[ex.graph.CapSlot(int(node))]
		if !ex.rt.mgr.Admissible(st.dec.Implementation) {
			ex.scheduleRetry(node, ex.rt.recovery.BreakerCooldownS)
			return
		}
		st.enqueue(node)
	})
	ex.retryEvs[ev] = true
}

// logAttempt appends to the job's bounded attempt history and notifies the
// owning handle's observer (the serving API's per-job attempt feed).
func (ex *Execution) logAttempt(task string, st *stage, attempt int, backoffS float64, cause error) {
	msg := ""
	if cause != nil {
		msg = cause.Error()
	}
	rec := AttemptRecord{
		AtS:            ex.rt.se.Now().Seconds(),
		Task:           task,
		Capability:     st.cap,
		Implementation: st.dec.Implementation,
		Attempt:        attempt,
		BackoffS:       backoffS,
		Err:            msg,
	}
	if len(ex.attemptLog) < maxAttemptLog {
		ex.attemptLog = append(ex.attemptLog, rec)
	}
	if h := ex.owner; h != nil && h.obs != nil {
		h.obs.JobAttempt(h, rec)
	}
}

// Attempts returns the execution's recorded attempt history (nil when no
// task ever failed).
func (ex *Execution) Attempts() []AttemptRecord { return ex.attemptLog }

// maybeDegrade checks whether a capability's accumulated failures warrant
// switching it to a cheaper implementation, and applies the switch at most
// once per capability per execution.
func (ex *Execution) maybeDegrade(cap string) {
	rc := ex.rt.recovery
	if rc == nil || ex.degraded[cap] {
		return
	}
	cur := ex.plan.Decisions[cap]
	if ex.capFails[cap] < rc.DegradeAfter && !ex.rt.mgr.Quarantined(cur.Implementation) {
		return
	}
	if ex.degradeStage(cap) {
		ex.degraded[cap] = true
		ex.rt.counters.Degradations++
	}
}

// degradeStage re-plans the remaining DAG through the re-plan verb with every
// other capability held at its current decision and the failing one swapped
// to the cheapest alternative implementation that keeps chain correctness
// over the remaining graph at or above the job's floor. Alternatives are
// tried cheapest-first; the first one that re-plans and rebinds wins.
// Adoption reuses the reconfiguration path (adoptPlan), so engine refs move
// two-phase and in-flight stages are left alone.
func (ex *Execution) degradeStage(cap string) bool {
	if st := ex.stageNamed(cap); st != nil && st.inflight > 0 {
		return false
	}
	work := ex.tracker.RemainingCapabilityWork()[cap]
	if work <= 0 {
		return false
	}
	rv := ex.remainingView()
	if rv.graph.Len() == 0 || rv.inflight[cap] {
		return false
	}
	floor := ex.job.MinQuality
	if ex.opts.RelaxFloor {
		floor = 0
	}
	r := ex.rt.newReplan(rv, ex.plan, ex.job, ex.opts, true, floor)
	cur := ex.plan.Decisions[cap].Implementation
	for _, a := range ex.rt.alternatives(cap, cur, work, r.snap) {
		if a.impl == cur || !r.clears(cap, a) {
			continue
		}
		r.swap(cap, a)
		if res := r.search(ex.rt.opt); res.err == nil {
			if changed, err := ex.adoptPlan(res.plan); err == nil && changed > 0 {
				return true
			}
		}
	}
	return false
}
