package api

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/workflow"
)

// JobState is a point-in-time view of one job.
type JobState struct {
	ID            string
	Tenant        string
	Shard         int
	Status        core.JobStatus
	QueueDelayS   float64
	SubmittedSimS float64
	FinishedSimS  float64
	Error         string
	// ErrorCode is the stable machine-readable failure class
	// (core.ErrorCode: retries_exhausted, deadline_exceeded, …); empty for
	// non-terminal and successful jobs.
	ErrorCode string
	// Attempts is the job's recorded task-failure history (bounded), live
	// while the job runs.
	Attempts []core.AttemptRecord
	Result   *JobResponse
}

// jobRecord is the registry entry behind a JobState, and the one heap object
// an admitted job owns on the serving path: it is the task posted to the shard
// loop (Run) and its handle's observer (JobStarted / JobAttempt / JobDone).
type jobRecord struct {
	id     string
	tenant string
	// sh is the owning shard, pinned at submit so cancels keep reaching a
	// shard displaced by recycling; shard is its index at submit time, for
	// display.
	sh    *shard
	shard int
	// What Run admits, and whether the result renders its timeline.
	job      workflow.Job
	opts     core.SubmitOptions
	timeline bool
	// admitted carries the SLO admission reply (nil with SLO tiers off): Run
	// sets admitErr, then sends one token.
	admitted chan struct{}
	admitErr error
	// waiter is the wait:true holder's wake-up channel (nil without one);
	// settle sends its one token.
	waiter chan struct{}

	mu            sync.Mutex
	status        core.JobStatus
	queueDelayS   float64
	submittedSimS float64
	finishedSimS  float64
	errMsg        string
	errCode       string
	attempts      []core.AttemptRecord
	// result is valid once status is JobDone and never written again, so
	// snapshots point into the record.
	result JobResponse
	// done is made on first demand (Done): most jobs settle with nobody
	// selecting on them.
	done chan struct{}
	// handle is only touched on the owning shard's loop goroutine, and only
	// until the job settles (settle clears it with job and opts).
	handle *core.Handle
}

// signals pools one-slot wake-up channels: a record's wait:true holder and
// its SLO admission reply each take one, receive at most one token on it and
// hand it back empty. A channel whose receive was abandoned is dropped, never
// returned — the token may still arrive.
var signals = sync.Pool{New: func() any { return make(chan struct{}, 1) }}

// Run is the record's turn on its shard's loop (sim.Task): admit the job and
// observe its handle.
func (r *jobRecord) Run() {
	sh := r.sh
	h, err := sh.sched.Submit(r.tenant, r.job, r.opts)
	if err != nil {
		// SLO shed/budget rejections land here; otherwise the handler
		// pre-validated and this is a safety net. Either way the record
		// settles terminal with the typed code, so a shed job is immediately
		// pollable and can never strand: it was never enqueued.
		sh.pool.failed.Add(1)
		r.admitErr = err
		r.settle(core.JobFailed, err, nil)
	} else {
		r.mu.Lock()
		r.handle = h
		r.submittedSimS = sh.eng.Now().Seconds()
		r.mu.Unlock()
		// Status transitions and the attempt history push into the record, so
		// HTTP status reads are mutex-only and never round-trip through the
		// shard loop.
		h.Observe(r)
	}
	if r.admitted != nil {
		r.admitted <- struct{}{}
	}
}

// JobStarted, JobAttempt and JobDone make the record its handle's
// core.JobObserver; they run on the owning shard's loop.
func (r *jobRecord) JobStarted(h *core.Handle) {
	r.mu.Lock()
	r.status = core.JobRunning
	r.queueDelayS = h.QueueDelayS()
	r.mu.Unlock()
}

// JobAttempt appends one task-failure record (bounded), so status polls see
// retries while the job is still running.
func (r *jobRecord) JobAttempt(_ *core.Handle, a core.AttemptRecord) {
	r.mu.Lock()
	if len(r.attempts) < maxJobAttemptLog {
		r.attempts = append(r.attempts, a)
	}
	r.mu.Unlock()
}

func (r *jobRecord) JobDone(h *core.Handle) {
	p := r.sh.pool
	switch h.Status() {
	case core.JobDone:
		p.completed.Add(1)
	case core.JobCanceled:
		p.canceled.Add(1)
	default:
		p.failed.Add(1)
	}
	r.settle(h.Status(), h.Err(), h)
}

// settle turns the record terminal — on its shard's loop, exactly once — and
// wakes whoever waits on it. h is nil for a job that was never admitted.
func (r *jobRecord) settle(st core.JobStatus, err error, h *core.Handle) {
	// Retire first: settling wakes the job's waiters, and what they read next
	// must already reflect the history eviction.
	r.sh.pool.retire(r)
	if st == core.JobDone {
		// Rendered outside the lock; the status write below publishes it.
		r.result = jobResponseFrom(h.Execution(), r.timeline)
		// The record is the handle's one owner and now has all it wants of the
		// execution: the block goes back to the shard's runtime.
		h.Release()
	}
	r.mu.Lock()
	r.status = st
	if h != nil {
		r.queueDelayS = h.QueueDelayS()
	}
	if err != nil {
		r.errMsg = err.Error()
	}
	r.errCode = string(core.ErrorCodeOf(err))
	r.finishedSimS = r.sh.eng.Now().Seconds()
	// Everything a poll can ask for was copied out above. The record stays in
	// the history; what it ran with must not: the handle leads to the
	// execution — tracker, spans, stages, plan, decomposition — and the job to
	// the request's inputs. Cancel reads a nil handle as "no longer cancelable".
	r.handle, r.job, r.opts = nil, workflow.Job{}, core.SubmitOptions{}
	done := r.done
	r.mu.Unlock()
	if done != nil {
		close(done)
	}
	if r.waiter != nil {
		r.waiter <- struct{}{}
	}
}

// Done returns a channel that is closed once the job is terminal.
func (r *jobRecord) Done() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done == nil {
		r.done = make(chan struct{})
		if r.status.Terminal() {
			close(r.done)
		}
	}
	return r.done
}

// wait blocks the wait:true holder until the job settles, and reports false
// when ctx ended first. Only then is the channel not handed back: settle may
// still send into it.
func (r *jobRecord) wait(ctx context.Context) bool {
	select {
	case <-r.waiter:
		signals.Put(r.waiter)
		return true
	case <-ctx.Done():
		return false
	}
}

func (r *jobRecord) snapshot() JobState {
	r.mu.Lock()
	defer r.mu.Unlock()
	var attempts []core.AttemptRecord
	if len(r.attempts) > 0 {
		// Copy: the shard keeps appending while the job runs.
		attempts = append(attempts, r.attempts...)
	}
	var result *JobResponse
	if r.status == core.JobDone {
		result = &r.result
	}
	return JobState{
		ID:            r.id,
		Tenant:        r.tenant,
		Shard:         r.shard,
		Status:        r.status,
		QueueDelayS:   r.queueDelayS,
		SubmittedSimS: r.submittedSimS,
		FinishedSimS:  r.finishedSimS,
		Error:         r.errMsg,
		ErrorCode:     r.errCode,
		Attempts:      attempts,
		Result:        result,
	}
}

// jobResponseFrom builds the result payload from a finished execution. It
// must run on the goroutine owning the execution's engine.
func jobResponseFrom(ex *core.Execution, timeline bool) JobResponse {
	rep := ex.Report()
	resp := JobResponse{
		Name:                 rep.Name,
		MakespanS:            rep.MakespanS,
		GPUEnergyWh:          rep.GPUEnergyWh,
		CPUEnergyWh:          rep.CPUEnergyWh,
		CostUSD:              rep.CostUSD,
		EstCostUSD:           ex.Plan().EstCostUSD,
		MeanGPUUtil:          rep.MeanGPUUtil,
		MeanCPUUtil:          rep.MeanCPUUtil,
		Quality:              rep.Quality,
		PlanningOverheadFrac: rep.PlanningOverheadFrac,
		TasksCompleted:       rep.TasksCompleted,
		Decisions:            rep.Decisions,
		Template:             ex.Decomposition().Template,
	}
	if timeline {
		resp.Timeline = rep.Timeline(72)
	}
	return resp
}
