package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/sim"
	"repro/internal/workflow"
)

// loopTestbed builds a daemon-style shard: engine, cluster, runtime,
// scheduler and a running sim.Loop, with off-loop plan search enabled when
// workers > 0. The cleanup drains the loop and stops the workers.
func loopTestbed(t *testing.T, maxConcurrent, workers int) (*cluster.Cluster, *Scheduler, *sim.Loop) {
	t.Helper()
	se := sim.NewEngine()
	loop := sim.NewLoop(se)
	cfg := Config{Engine: se}
	if workers > 0 {
		cfg.Loop, cfg.PlanWorkers = loop, workers
	}
	_, cl, rt := newRuntimeWith(t, cfg)
	s := NewScheduler(se, rt, maxConcurrent)
	go loop.Run()
	t.Cleanup(func() {
		loop.Close()
		s.StopPlanSearch()
	})
	return cl, s, loop
}

// submitOnLoop posts a submission into the loop and returns its handle.
func submitOnLoop(t *testing.T, loop *sim.Loop, s *Scheduler, tenant string, job workflow.Job) *Handle {
	t.Helper()
	var h *Handle
	var err error
	done := make(chan struct{})
	if !loop.Post(func() {
		h, err = s.Submit(tenant, job, SubmitOptions{RelaxFloor: true, KeepEngines: true})
		close(done)
	}) {
		t.Fatal("loop closed")
	}
	<-done
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// waitDone blocks until the handle settles (via a handle callback posted from
// the loop goroutine).
func waitDone(t *testing.T, loop *sim.Loop, h *Handle) {
	t.Helper()
	done := make(chan struct{})
	if !loop.Post(func() {
		if h.Status().Terminal() {
			close(done)
			return
		}
		h.Observe(observerFuncs{done: func(*Handle) { close(done) }})
	}) {
		t.Fatal("loop closed")
	}
	<-done
}

// distinctJob returns the i-th structurally-distinct newsfeed job.
func distinctJob(i int) workflow.Job {
	return workflow.Job{
		Description: fmt.Sprintf("Generate social media newsfeed variant %d", i),
		Inputs: []workflow.Input{
			{Name: fmt.Sprintf("user-%d", i), Kind: workflow.InputUser},
			{Name: "cats", Kind: workflow.InputTopic,
				Attrs: map[string]float64{"queries": float64(2 + i%3)}},
		},
		Constraint: workflow.MinLatency,
		MinQuality: 0.05 + float64(i)*1e-9,
	}
}

// TestParallelAdmissionMatchesSerial runs the same burst through a serial
// scheduler and one with off-loop plan search, and asserts every job
// completes with the identical plan: optimistic snapshot commit must be
// bit-stable with inline planning.
func TestParallelAdmissionMatchesSerial(t *testing.T) {
	const jobs = 12
	run := func(workers int) []map[string]string {
		_, s, loop := loopTestbed(t, 4, workers)
		handles := make([]*Handle, jobs)
		for i := 0; i < jobs; i++ {
			handles[i] = submitOnLoop(t, loop, s, fmt.Sprintf("t%d", i%3), distinctJob(i))
		}
		decisions := make([]map[string]string, jobs)
		for i, h := range handles {
			waitDone(t, loop, h)
			if h.Status() != JobDone {
				t.Fatalf("workers=%d job %d: status %v err %v", workers, i, h.Status(), h.Err())
			}
			decisions[i] = h.Report().Decisions
		}
		return decisions
	}
	serial := run(0)
	parallel := run(2)
	for i := range serial {
		if len(serial[i]) != len(parallel[i]) {
			t.Fatalf("job %d: decision counts differ: %v vs %v", i, serial[i], parallel[i])
		}
		for cap, d := range serial[i] {
			if parallel[i][cap] != d {
				t.Errorf("job %d capability %s: serial %q parallel %q", i, cap, d, parallel[i][cap])
			}
		}
	}
}

// TestSingleflightDedupsIdenticalBursts submits a burst of identical jobs and
// asserts exactly one plan search ran, with the rest joining it (or probing
// the cache it populated).
func TestSingleflightDedupsIdenticalBursts(t *testing.T) {
	const jobs = 8
	_, s, loop := loopTestbed(t, 2, 2)
	job := distinctJob(0)
	handles := make([]*Handle, jobs)
	// One posted closure submits the whole burst, so every submission
	// dispatches before the first search can commit — the singleflight
	// window is guaranteed open.
	done := make(chan struct{})
	if !loop.Post(func() {
		for i := range handles {
			h, err := s.Submit(fmt.Sprintf("t%d", i%4), job, SubmitOptions{RelaxFloor: true, KeepEngines: true})
			if err != nil {
				t.Error(err)
			}
			handles[i] = h
		}
		close(done)
	}) {
		t.Fatal("loop closed")
	}
	<-done
	for i, h := range handles {
		waitDone(t, loop, h)
		if h.Status() != JobDone {
			t.Fatalf("job %d: status %v err %v", i, h.Status(), h.Err())
		}
	}
	var st SchedulerStats
	statsDone := make(chan struct{})
	loop.Post(func() { st = s.Stats(); close(statsDone) })
	<-statsDone
	if st.PlanSearches != 1 {
		t.Errorf("plan searches = %d, want 1 (singleflight)", st.PlanSearches)
	}
	if st.SingleflightHits != jobs-1 {
		t.Errorf("singleflight hits = %d, want %d", st.SingleflightHits, jobs-1)
	}
	if st.PlanConflicts != 0 {
		t.Errorf("conflicts = %d, want 0", st.PlanConflicts)
	}
	if st.PlanSearchInflight != 0 {
		t.Errorf("inflight = %d after quiescence", st.PlanSearchInflight)
	}
}

// TestPlanConflictReplansInline invalidates an in-flight search
// deterministically: the capacity class changes (AddVM) in the same posted
// closure that submitted the job, i.e. after dispatch captured its snapshot
// but necessarily before the commit post runs. The commit must count a
// conflict and the job must still complete via inline re-planning.
func TestPlanConflictReplansInline(t *testing.T) {
	cl, s, loop := loopTestbed(t, 2, 1)
	var h *Handle
	done := make(chan struct{})
	if !loop.Post(func() {
		var err error
		h, err = s.Submit("alice", distinctJob(1), SubmitOptions{RelaxFloor: true, KeepEngines: true})
		if err != nil {
			t.Error(err)
		}
		cl.AddVM("late-vm", hardware.NDv4SKUName, false)
		close(done)
	}) {
		t.Fatal("loop closed")
	}
	<-done
	waitDone(t, loop, h)
	if h.Status() != JobDone || h.Err() != nil {
		t.Fatalf("status %v err %v, want done", h.Status(), h.Err())
	}
	var st SchedulerStats
	statsDone := make(chan struct{})
	loop.Post(func() { st = s.Stats(); close(statsDone) })
	<-statsDone
	if st.PlanConflicts != 1 {
		t.Errorf("conflicts = %d, want 1 (stale capacity generation)", st.PlanConflicts)
	}
	if st.Completed != 1 {
		t.Errorf("completed = %d, want 1", st.Completed)
	}
}

// TestCancelWhileSearchInFlight cancels a job in the same closure that
// submitted it — before its plan search can possibly commit. The cancel must
// take effect immediately, the late commit must skip the dead handle, and the
// loop must still drain cleanly (the search's hold resolves).
func TestCancelWhileSearchInFlight(t *testing.T) {
	_, s, loop := loopTestbed(t, 2, 1)
	var h *Handle
	var canceled bool
	done := make(chan struct{})
	if !loop.Post(func() {
		var err error
		h, err = s.Submit("alice", distinctJob(2), SubmitOptions{RelaxFloor: true, KeepEngines: true})
		if err != nil {
			t.Error(err)
		}
		canceled = h.Cancel()
		close(done)
	}) {
		t.Fatal("loop closed")
	}
	<-done
	if !canceled {
		t.Fatal("Cancel on a queued (search-in-flight) job returned false")
	}
	if h.Status() != JobCanceled || !errors.Is(h.Err(), ErrCanceled) {
		t.Fatalf("status %v err %v, want canceled", h.Status(), h.Err())
	}
	// Drain: Loop.Close blocks until the search's hold resolves — a stuck
	// hold would deadlock the test here.
	loop.Close()
	s.StopPlanSearch()
	if st := s.Stats(); st.Canceled != 1 || st.Completed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDrainWaitsForInFlightSearch closes the loop immediately after a
// submission whose plan search is still on a worker: drain-on-Close must wait
// for the search to commit and the job to run to completion, not strand it.
func TestDrainWaitsForInFlightSearch(t *testing.T) {
	_, s, loop := loopTestbed(t, 2, 1)
	h := submitOnLoop(t, loop, s, "alice", distinctJob(3))
	loop.Close()
	s.StopPlanSearch()
	if h.Status() != JobDone || h.Err() != nil {
		t.Fatalf("after drain: status %v err %v, want done", h.Status(), h.Err())
	}
}

// TestStalePreparedPlanReplansAtStart covers the queue-wait window: a
// submission whose prepared plan came straight from the caches (probe hit,
// generation-stamped) is followed — in the same posted closure, i.e. before
// the deferred pump can admit it — by a capacity-class change. At start the
// stamp no longer matches, so the job must re-plan inline (counted as a
// conflict) instead of launching the stale plan.
func TestStalePreparedPlanReplansAtStart(t *testing.T) {
	cl, s, loop := loopTestbed(t, 2, 1)
	job := distinctJob(4)
	warm := submitOnLoop(t, loop, s, "alice", job)
	waitDone(t, loop, warm)
	if warm.Status() != JobDone {
		t.Fatalf("warm job: %v err %v", warm.Status(), warm.Err())
	}

	var h *Handle
	done := make(chan struct{})
	if !loop.Post(func() {
		var err error
		h, err = s.Submit("bob", job, SubmitOptions{RelaxFloor: true, KeepEngines: true})
		if err != nil {
			t.Error(err)
		}
		if h.prepared.plan == nil || !h.planReady {
			t.Errorf("warm shape did not probe-hit: prepared=%+v ready=%v", h.prepared, h.planReady)
		}
		cl.AddVM("late-vm", hardware.NDv4SKUName, false)
		close(done)
	}) {
		t.Fatal("loop closed")
	}
	<-done
	waitDone(t, loop, h)
	if h.Status() != JobDone || h.Err() != nil {
		t.Fatalf("status %v err %v, want done via inline re-plan", h.Status(), h.Err())
	}
	var st SchedulerStats
	statsDone := make(chan struct{})
	loop.Post(func() { st = s.Stats(); close(statsDone) })
	<-statsDone
	if st.PlanConflicts != 1 {
		t.Errorf("conflicts = %d, want 1 (stamp stale at start)", st.PlanConflicts)
	}
}
