// Package aiwaas implements the paper's §5 "AI Workflows-as-a-Service"
// vision: a multi-tenant front end over the Murakkab runtime, analogous to
// FaaS. Tenants submit declarative jobs; admission (bounded concurrency with
// fair-share ordering across tenants) is delegated to the core scheduler —
// the scheduler/executor split — while this layer keeps serving engines warm
// between jobs and meters per-tenant usage (jobs, estimated spend, energy,
// latency) — "developers focus solely on application logic, without needing
// to manage model or resource details".
package aiwaas

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workflow"
)

// Status is a ticket's lifecycle state.
type Status int

// Ticket states.
const (
	StatusQueued Status = iota
	StatusRunning
	StatusDone
	StatusFailed
	StatusCanceled
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case StatusQueued:
		return "queued"
	case StatusRunning:
		return "running"
	case StatusDone:
		return "done"
	case StatusFailed:
		return "failed"
	case StatusCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Ticket tracks one submitted job through the service. It is a tenant-facing
// view over the core scheduler's job handle, and that handle's observer.
type Ticket struct {
	ID     int
	Tenant string
	Job    workflow.Job
	Opts   core.SubmitOptions

	svc      *Service
	h        *core.Handle
	whenDone []func(*Ticket)
}

// Status returns the current state.
func (t *Ticket) Status() Status {
	switch t.h.Status() {
	case core.JobQueued:
		return StatusQueued
	case core.JobRunning:
		return StatusRunning
	case core.JobDone:
		return StatusDone
	case core.JobCanceled:
		return StatusCanceled
	default:
		return StatusFailed
	}
}

// Err returns the terminal error for failed tickets.
func (t *Ticket) Err() error { return t.h.Err() }

// Report returns the execution report once done.
func (t *Ticket) Report() *report.Report { return t.h.Report() }

// QueueDelayS is time spent waiting for admission.
func (t *Ticket) QueueDelayS() float64 { return t.h.QueueDelayS() }

// Cancel terminates the ticket's job (queued or running); it reports whether
// the job was still cancelable.
func (t *Ticket) Cancel() bool { return t.h.Cancel() }

// WhenDone registers a completion callback: it fires once the ticket is
// done, failed or canceled (at once when it already is), after the service has
// metered the job.
func (t *Ticket) WhenDone(fn func(*Ticket)) {
	if t.h.Status().Terminal() {
		fn(t)
		return
	}
	t.whenDone = append(t.whenDone, fn)
}

// JobStarted, JobAttempt and JobDone make the ticket its handle's
// core.JobObserver. Metering settles first, so tenant callbacks see the usage
// record of the terminal state they are told about.
func (t *Ticket) JobStarted(*core.Handle) {}

func (t *Ticket) JobAttempt(*core.Handle, core.AttemptRecord) {}

func (t *Ticket) JobDone(h *core.Handle) {
	t.svc.meter(t, h)
	for _, fn := range t.whenDone {
		fn(t)
	}
}

// TenantUsage is the §5 metering record for one tenant.
type TenantUsage struct {
	Tenant        string
	Submitted     int
	Completed     int
	Failed        int
	Canceled      int
	TotalBillUSD  float64
	TotalEnergyWh float64
	TotalLatencyS float64
	TotalQueueS   float64
}

// Service is the AIWaaS front end.
type Service struct {
	sched *core.Scheduler

	nextID int
	usage  map[string]*TenantUsage
}

// New creates a service over a runtime with the given admission concurrency.
func New(se *sim.Engine, rt *core.Runtime, maxConcurrent int) *Service {
	return &Service{
		sched: core.NewScheduler(se, rt, maxConcurrent),
		usage: map[string]*TenantUsage{},
	}
}

// Submit enqueues a job for a tenant. Validation errors return immediately;
// planning/execution errors surface on the ticket.
func (s *Service) Submit(tenant string, job workflow.Job, opts core.SubmitOptions) (*Ticket, error) {
	// Engines stay warm across jobs: the service owns their lifecycle.
	opts.KeepEngines = true
	h, err := s.sched.Submit(tenant, job, opts)
	if err != nil {
		return nil, err
	}
	s.nextID++
	t := &Ticket{
		ID:     s.nextID,
		Tenant: tenant,
		Job:    job,
		Opts:   opts,
		svc:    s,
		h:      h,
	}
	s.tenantUsage(tenant).Submitted++
	h.Observe(t)
	return t, nil
}

func (s *Service) tenantUsage(tenant string) *TenantUsage {
	u, ok := s.usage[tenant]
	if !ok {
		u = &TenantUsage{Tenant: tenant}
		s.usage[tenant] = u
	}
	return u
}

func (s *Service) meter(t *Ticket, h *core.Handle) {
	u := s.tenantUsage(t.Tenant)
	u.TotalQueueS += h.QueueDelayS()
	switch h.Status() {
	case core.JobCanceled:
		u.Canceled++
	case core.JobFailed:
		u.Failed++
	case core.JobDone:
		u.Completed++
		// Billing uses the optimizer's per-decision resource-seconds
		// estimates (cloud-style metering of what the job committed), not
		// the whole-cluster rental, which is shared across tenants.
		u.TotalBillUSD += h.Execution().Plan().EstCostUSD
		if rep := h.Report(); rep != nil {
			u.TotalEnergyWh += rep.GPUEnergyWh
			u.TotalLatencyS += rep.MakespanS
		}
	}
}

// QueueDepth returns queued (unadmitted) tickets.
func (s *Service) QueueDepth() int { return s.sched.QueueDepth() }

// Running returns currently-admitted jobs.
func (s *Service) Running() int { return s.sched.Running() }

// Usage returns per-tenant usage records, sorted by tenant.
func (s *Service) Usage() []TenantUsage {
	out := make([]TenantUsage, 0, len(s.usage))
	for _, u := range s.usage {
		out = append(out, *u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
