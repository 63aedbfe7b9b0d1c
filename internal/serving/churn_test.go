package serving

import (
	"fmt"
	"testing"

	"repro/internal/agents"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/sim"
	"repro/internal/workflow"
)

// settled is a core.JobObserver that sends each handle it sees turn terminal.
type settled chan<- *core.Handle

func (settled) JobStarted(*core.Handle)                     {}
func (settled) JobAttempt(*core.Handle, core.AttemptRecord) {}
func (s settled) JobDone(h *core.Handle)                    { s <- h }

// TestShardChurnPreemptReloadNeverStrands drives a full serving-shard stack
// (engine + cluster + scheduler + sim.Loop + off-loop plan search + the
// reconfiguration controller + the rebalancing loop) through the worst churn
// sequence: the manager rebalances engines while jobs are in flight, then the
// spot VM hosting the engines is preempted, forcing an EngineReloadDelayS
// rebuild onto the surviving VM. Every job must reach a terminal state —
// complete or re-plan, never strand — and the suite runs under -race in CI,
// so the loop/worker-pool handoffs are exercised concurrently.
func TestShardChurnPreemptReloadNeverStrands(t *testing.T) {
	se := sim.NewEngine()
	cl := cluster.New(se, hardware.DefaultCatalog())
	// Engines place onto vm0 (first provisioned wins ties for most-free), so
	// preempting it mid-run forces the reload path; vm1 survives.
	cl.AddVM("vm0", hardware.NDv4SKUName, true)
	cl.AddVM("vm1", hardware.NDv4SKUName, false)
	loop := sim.NewLoop(se)
	rt, err := core.New(core.Config{
		Engine: se, Cluster: cl, Library: agents.DefaultLibrary(),
		RebalancePeriod: 5, Loop: loop, PlanWorkers: 2, Reconfig: &core.ReconfigConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	sched := core.NewScheduler(se, rt, 8)
	go loop.Run()

	const jobs = 6
	done := make(chan *core.Handle, jobs)
	for i := 0; i < jobs; i++ {
		i := i
		if !loop.Post(func() {
			job := workflow.Job{
				Description: "List objects shown in the videos",
				Inputs:      []workflow.Input{workflow.VideoInput(fmt.Sprintf("v%d.mov", i), 240, 30, 24)},
				Constraint:  workflow.MinLatency,
				MinQuality:  0.9,
			}
			h, err := sched.Submit(fmt.Sprintf("tenant-%d", i%3), job, core.SubmitOptions{RelaxFloor: true, KeepEngines: true})
			if err != nil {
				t.Error(err)
				done <- nil
				return
			}
			h.Observe(settled(done))
		}) {
			t.Fatal("loop closed before submission")
		}
	}
	// Churn lands mid-flight: a manual rebalance pass (on top of the periodic
	// loop), then the spot eviction that kills the engines' VM, then fresh
	// capacity that the reconfiguration controller can re-plan onto.
	if !loop.Post(func() {
		se.After(10, func() { rt.Manager().Rebalance() })
		se.After(15, func() { cl.PreemptVM("vm0") })
		se.After(20, func() { cl.AddVM("vm2", hardware.NDv4SKUName, false) })
	}) {
		t.Fatal("loop closed before churn injection")
	}

	for i := 0; i < jobs; i++ {
		h := <-done
		if h == nil {
			continue // submit error already reported
		}
		if !h.Status().Terminal() {
			t.Fatalf("job %v stranded in %v", h.ID(), h.Status())
		}
		if h.Status() != core.JobDone {
			t.Errorf("job %v = %v err = %v", h.ID(), h.Status(), h.Err())
		}
	}
	loop.Close()
	sched.StopPlanSearch()
	st := sched.Stats()
	if st.Completed != jobs {
		t.Fatalf("completed %d/%d: %+v", st.Completed, jobs, st)
	}
}
