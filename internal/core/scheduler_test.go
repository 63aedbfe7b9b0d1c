package core

import (
	"errors"
	"testing"

	"repro/internal/sim"
	"repro/internal/workflow"
)

func schedTestbed(t *testing.T, maxConcurrent int) (*sim.Engine, *Scheduler) {
	return schedWith(t, maxConcurrent, Config{})
}

// schedWith is schedTestbed over a runtime built from cfg (see newRuntimeWith).
func schedWith(t *testing.T, maxConcurrent int, cfg Config) (*sim.Engine, *Scheduler) {
	t.Helper()
	se, _, rt := newRuntimeWith(t, cfg)
	return se, NewScheduler(se, rt, maxConcurrent)
}

func schedVideoJob() workflow.Job {
	return workflow.Job{
		Description: "List objects shown in the videos",
		Inputs:      []workflow.Input{workflow.VideoInput("a.mov", 120, 30, 24)},
		Constraint:  workflow.MinCost,
		MinQuality:  0.9,
	}
}

func schedNewsfeedJob() workflow.Job {
	return workflow.Job{
		Description: "Generate social media newsfeed for Alice",
		Inputs: []workflow.Input{
			{Name: "alice", Kind: workflow.InputUser},
			{Name: "cats", Kind: workflow.InputTopic},
		},
		Constraint: workflow.MinLatency,
	}
}

func TestSchedulerLifecycle(t *testing.T) {
	se, s := schedTestbed(t, 2)
	h, err := s.Submit("alice", schedVideoJob(), SubmitOptions{RelaxFloor: true})
	if err != nil {
		t.Fatal(err)
	}
	if h.ID() != 1 || h.Tenant() != "alice" {
		t.Fatalf("handle = id %d tenant %q", h.ID(), h.Tenant())
	}
	if h.Status() != JobQueued {
		t.Fatalf("status = %v before pump", h.Status())
	}
	se.Run()
	if h.Status() != JobDone || h.Err() != nil {
		t.Fatalf("status = %v err = %v", h.Status(), h.Err())
	}
	if h.Report() == nil || h.Report().MakespanS <= 0 {
		t.Fatal("no report on done handle")
	}
	st := s.Stats()
	if st.Submitted != 1 || st.Completed != 1 || st.Running != 0 || st.Queued != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSchedulerConcurrencyBoundAndFairShare(t *testing.T) {
	se, s := schedTestbed(t, 1)
	a1, _ := s.Submit("alice", schedVideoJob(), SubmitOptions{RelaxFloor: true})
	a2, _ := s.Submit("alice", schedVideoJob(), SubmitOptions{RelaxFloor: true})
	b1, _ := s.Submit("bob", schedNewsfeedJob(), SubmitOptions{RelaxFloor: true})
	se.RunUntil(1)
	if a1.Status() != JobRunning || a2.Status() != JobQueued {
		t.Fatalf("a1=%v a2=%v, want running/queued", a1.Status(), a2.Status())
	}
	if s.Running() != 1 || s.QueueDepth() != 2 {
		t.Fatalf("running=%d queued=%d", s.Running(), s.QueueDepth())
	}
	var order []string
	for _, h := range []*Handle{a1, a2, b1} {
		h := h
		h.Observe(observerFuncs{done: func(*Handle) { order = append(order, h.Tenant()) }})
	}
	se.Run()
	// Fair share: bob's single job must not wait behind alice's backlog.
	if len(order) != 3 || order[0] != "alice" || order[1] != "bob" {
		t.Fatalf("completion order = %v, want alice,bob,alice", order)
	}
	if a2.QueueDelayS() <= 0 {
		t.Fatal("queued job reports no queue delay")
	}
}

func TestSchedulerCancelQueued(t *testing.T) {
	se, s := schedTestbed(t, 1)
	s.Submit("alice", schedVideoJob(), SubmitOptions{RelaxFloor: true})
	h2, _ := s.Submit("alice", schedVideoJob(), SubmitOptions{RelaxFloor: true})
	se.RunUntil(1)
	if h2.Status() != JobQueued {
		t.Fatalf("h2 = %v, want queued", h2.Status())
	}
	fired := false
	h2.Observe(observerFuncs{done: func(*Handle) { fired = true }})
	if !h2.Cancel() {
		t.Fatal("Cancel on queued job returned false")
	}
	if h2.Status() != JobCanceled || !errors.Is(h2.Err(), ErrCanceled) || !fired {
		t.Fatalf("after cancel: status=%v err=%v fired=%v", h2.Status(), h2.Err(), fired)
	}
	if h2.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	se.Run()
	st := s.Stats()
	if st.Canceled != 1 || st.Completed != 1 || st.Queued != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSchedulerCancelRunning(t *testing.T) {
	se, s := schedTestbed(t, 2)
	h, _ := s.Submit("alice", schedVideoJob(), SubmitOptions{RelaxFloor: true})
	se.RunUntil(5) // mid-execution: engines up, workers busy
	if h.Status() != JobRunning {
		t.Fatalf("status = %v at t=5, want running", h.Status())
	}
	if !h.Cancel() {
		t.Fatal("Cancel on running job returned false")
	}
	if h.Status() != JobCanceled || !errors.Is(h.Err(), ErrCanceled) {
		t.Fatalf("after cancel: status=%v err=%v", h.Status(), h.Err())
	}
	// The simulation drains cleanly: no orphaned events panic, and the slot
	// freed by the cancel admits later jobs.
	h2, _ := s.Submit("alice", schedNewsfeedJob(), SubmitOptions{RelaxFloor: true})
	se.Run()
	if h2.Status() != JobDone {
		t.Fatalf("follow-up job = %v err=%v", h2.Status(), h2.Err())
	}
	if s.Stats().Canceled != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
}

func TestSchedulerFailedJobSurfacesOnHandle(t *testing.T) {
	se, s := schedTestbed(t, 1)
	bad := workflow.Job{
		Description: "Do mysterious things",
		Inputs:      []workflow.Input{{Name: "x", Kind: workflow.InputText}},
		Constraint:  workflow.MinCost,
	}
	h, err := s.Submit("alice", bad, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	se.Run()
	if h.Status() != JobFailed || h.Err() == nil {
		t.Fatalf("status = %v err = %v, want failed", h.Status(), h.Err())
	}
	if s.Stats().Failed != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
}

func TestSchedulerRejectsInvalidSubmissions(t *testing.T) {
	_, s := schedTestbed(t, 1)
	if _, err := s.Submit("", schedVideoJob(), SubmitOptions{}); err == nil {
		t.Fatal("empty tenant accepted")
	}
	if _, err := s.Submit("alice", workflow.Job{}, SubmitOptions{}); err == nil {
		t.Fatal("invalid job accepted")
	}
}

func TestJobStatusString(t *testing.T) {
	for s, want := range map[JobStatus]string{
		JobQueued: "queued", JobRunning: "running", JobDone: "done",
		JobFailed: "failed", JobCanceled: "canceled", JobStatus(9): "JobStatus(9)",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
	if JobQueued.Terminal() || JobRunning.Terminal() || !JobDone.Terminal() ||
		!JobFailed.Terminal() || !JobCanceled.Terminal() {
		t.Error("Terminal() classification wrong")
	}
}
