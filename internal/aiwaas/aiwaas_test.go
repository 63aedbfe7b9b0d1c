package aiwaas

import (
	"testing"

	"repro/internal/agents"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/sim"
	"repro/internal/workflow"
)

func service(t *testing.T, maxConcurrent int) (*sim.Engine, *Service) {
	t.Helper()
	se := sim.NewEngine()
	cl := cluster.New(se, hardware.DefaultCatalog())
	cl.AddVM("vm0", hardware.NDv4SKUName, false)
	cl.AddVM("vm1", hardware.NDv4SKUName, false)
	rt, err := core.New(core.Config{Engine: se, Cluster: cl, Library: agents.DefaultLibrary()})
	if err != nil {
		t.Fatal(err)
	}
	return se, New(se, rt, maxConcurrent)
}

func smallVideoJob() workflow.Job {
	return workflow.Job{
		Description: "List objects shown in the videos",
		Inputs:      []workflow.Input{workflow.VideoInput("a.mov", 120, 30, 24)},
		Constraint:  workflow.MinCost,
		MinQuality:  0.9,
	}
}

func newsfeed() workflow.Job {
	return workflow.Job{
		Description: "Generate social media newsfeed for Alice",
		Inputs: []workflow.Input{
			{Name: "alice", Kind: workflow.InputUser},
			{Name: "cats", Kind: workflow.InputTopic},
		},
		Constraint: workflow.MinLatency,
	}
}

func TestSubmitRunsToCompletion(t *testing.T) {
	se, s := service(t, 2)
	tk, err := s.Submit("alice", smallVideoJob(), core.SubmitOptions{RelaxFloor: true})
	if err != nil {
		t.Fatal(err)
	}
	if tk.Status() != StatusQueued {
		t.Fatalf("status = %v before pump", tk.Status())
	}
	se.Run()
	if tk.Status() != StatusDone {
		t.Fatalf("status = %v, err=%v", tk.Status(), tk.Err())
	}
	if tk.Report() == nil || tk.Report().MakespanS <= 0 {
		t.Fatal("no report")
	}
	u := s.Usage()
	if len(u) != 1 || u[0].Completed != 1 || u[0].TotalBillUSD <= 0 {
		t.Fatalf("usage = %+v", u)
	}
}

func TestConcurrencyLimitQueues(t *testing.T) {
	se, s := service(t, 1)
	t1, _ := s.Submit("alice", smallVideoJob(), core.SubmitOptions{RelaxFloor: true})
	t2, _ := s.Submit("alice", smallVideoJob(), core.SubmitOptions{RelaxFloor: true})
	se.RunUntil(1)
	if t1.Status() != StatusRunning {
		t.Fatalf("t1 = %v, want running", t1.Status())
	}
	if t2.Status() != StatusQueued {
		t.Fatalf("t2 = %v, want queued (limit 1)", t2.Status())
	}
	if s.QueueDepth() != 1 || s.Running() != 1 {
		t.Fatalf("queue=%d running=%d", s.QueueDepth(), s.Running())
	}
	se.Run()
	if t2.Status() != StatusDone {
		t.Fatalf("t2 = %v after drain, err=%v", t2.Status(), t2.Err())
	}
	if t2.QueueDelayS() <= 0 {
		t.Fatal("queued ticket shows no queue delay")
	}
}

func TestFairShareAcrossTenants(t *testing.T) {
	se, s := service(t, 1)
	// Alice floods; Bob submits one job after. Fair share must run Bob's
	// job before Alice's remaining backlog.
	a1, _ := s.Submit("alice", smallVideoJob(), core.SubmitOptions{RelaxFloor: true})
	a2, _ := s.Submit("alice", smallVideoJob(), core.SubmitOptions{RelaxFloor: true})
	a3, _ := s.Submit("alice", smallVideoJob(), core.SubmitOptions{RelaxFloor: true})
	b1, _ := s.Submit("bob", newsfeed(), core.SubmitOptions{RelaxFloor: true})

	var order []string
	for _, tk := range []*Ticket{a1, a2, a3, b1} {
		tk := tk
		tk.WhenDone(func(*Ticket) { order = append(order, tk.Tenant) })
	}
	se.Run()
	if len(order) != 4 {
		t.Fatalf("completed %d of 4", len(order))
	}
	// a1 runs first (admitted immediately); bob must be next.
	if order[0] != "alice" || order[1] != "bob" {
		t.Fatalf("completion order = %v, want alice,bob,alice,alice", order)
	}
}

func TestUsageMetering(t *testing.T) {
	se, s := service(t, 4)
	s.Submit("alice", smallVideoJob(), core.SubmitOptions{RelaxFloor: true})
	s.Submit("alice", newsfeed(), core.SubmitOptions{RelaxFloor: true})
	s.Submit("bob", newsfeed(), core.SubmitOptions{RelaxFloor: true})
	se.Run()
	usage := s.Usage()
	if len(usage) != 2 {
		t.Fatalf("tenants = %d", len(usage))
	}
	alice, bob := usage[0], usage[1]
	if alice.Tenant != "alice" || bob.Tenant != "bob" {
		t.Fatalf("sorted order wrong: %v", usage)
	}
	if alice.Submitted != 2 || alice.Completed != 2 {
		t.Fatalf("alice usage %+v", alice)
	}
	if alice.TotalBillUSD <= bob.TotalBillUSD {
		t.Fatal("alice (video+feed) should owe more than bob (feed only)")
	}
	if alice.TotalLatencyS <= 0 || alice.TotalEnergyWh <= 0 {
		t.Fatalf("metering incomplete: %+v", alice)
	}
}

func TestBadSubmissions(t *testing.T) {
	_, s := service(t, 1)
	if _, err := s.Submit("", smallVideoJob(), core.SubmitOptions{}); err == nil {
		t.Fatal("empty tenant accepted")
	}
	if _, err := s.Submit("alice", workflow.Job{}, core.SubmitOptions{}); err == nil {
		t.Fatal("invalid job accepted")
	}
}

func TestFailedJobMarksTicket(t *testing.T) {
	se, s := service(t, 1)
	// A job the planner cannot decompose fails at start time (after
	// admission), surfacing on the ticket rather than panicking the pump.
	bad := workflow.Job{
		Description: "Do mysterious things",
		Inputs:      []workflow.Input{{Name: "x", Kind: workflow.InputText}},
		Constraint:  workflow.MinCost,
	}
	tk, err := s.Submit("alice", bad, core.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	se.Run()
	if tk.Status() != StatusFailed || tk.Err() == nil {
		t.Fatalf("status = %v err = %v, want failed", tk.Status(), tk.Err())
	}
	u := s.Usage()[0]
	if u.Failed != 1 || u.Completed != 0 {
		t.Fatalf("usage %+v", u)
	}
	// The service keeps admitting after a failure.
	ok, _ := s.Submit("alice", newsfeed(), core.SubmitOptions{RelaxFloor: true})
	se.Run()
	if ok.Status() != StatusDone {
		t.Fatalf("follow-up job = %v", ok.Status())
	}
}

func TestOnDoneAfterCompletionFiresImmediately(t *testing.T) {
	se, s := service(t, 1)
	tk, _ := s.Submit("alice", newsfeed(), core.SubmitOptions{RelaxFloor: true})
	se.Run()
	fired := false
	tk.WhenDone(func(*Ticket) { fired = true })
	if !fired {
		t.Fatal("WhenDone on completed ticket did not fire")
	}
}

func TestCancelQueuedTicketMetersAsCanceled(t *testing.T) {
	se, s := service(t, 1)
	t1, _ := s.Submit("alice", smallVideoJob(), core.SubmitOptions{RelaxFloor: true})
	t2, _ := s.Submit("alice", smallVideoJob(), core.SubmitOptions{RelaxFloor: true})
	se.RunUntil(1)
	if !t2.Cancel() {
		t.Fatal("queued ticket not cancelable")
	}
	if t2.Status() != StatusCanceled {
		t.Fatalf("t2 = %v, want canceled", t2.Status())
	}
	se.Run()
	if t1.Status() != StatusDone {
		t.Fatalf("t1 = %v after drain", t1.Status())
	}
	u := s.Usage()[0]
	if u.Canceled != 1 || u.Completed != 1 {
		t.Fatalf("usage = %+v", u)
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		StatusQueued: "queued", StatusRunning: "running",
		StatusDone: "done", StatusFailed: "failed",
		StatusCanceled: "canceled", Status(9): "Status(9)",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
}
