package core

import (
	"fmt"
	"testing"

	"repro/internal/agents"
	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/sim"
	"repro/internal/workflow"
)

// reconfigTestbed is a single-VM shard over a runtime built from cfg, with
// the reconfiguration controller on when enable is: small enough that fleet
// growth mid-run meaningfully changes what the optimizer would choose.
func reconfigTestbed(t *testing.T, maxConcurrent int, enable bool, cfg Config) (*sim.Engine, *cluster.Cluster, *Scheduler) {
	t.Helper()
	se := sim.NewEngine()
	cl := cluster.New(se, hardware.DefaultCatalog())
	cl.AddVM("vm0", hardware.NDv4SKUName, false)
	cfg.Engine, cfg.Cluster, cfg.Library = se, cl, agents.DefaultLibrary()
	if enable {
		cfg.Reconfig = &ReconfigConfig{}
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return se, cl, NewScheduler(se, rt, maxConcurrent)
}

// wideVideoJob has 12 tasks per worker stage, so its planned parallelism is
// capacity-bound on one VM and a bigger fleet unlocks shorter waves.
func wideVideoJob() workflow.Job {
	return workflow.Job{
		Description: "List objects shown in the videos",
		Inputs:      []workflow.Input{workflow.VideoInput("wide.mov", 360, 30, 24)},
		Constraint:  workflow.MinLatency,
		MinQuality:  0.9,
	}
}

// runGrowthScenario submits one wide job, grows the fleet by three VMs at
// t=2s — while the job's later stages have not started, so their bindings
// are still at a boundary — and runs to completion.
func runGrowthScenario(t *testing.T, enable bool) (*Handle, *Scheduler) {
	t.Helper()
	se, cl, s := reconfigTestbed(t, 4, enable, Config{})
	h, err := s.Submit("alice", wideVideoJob(), SubmitOptions{RelaxFloor: true})
	if err != nil {
		t.Fatal(err)
	}
	se.After(2, func() {
		for i := 1; i <= 3; i++ {
			cl.AddVM(fmt.Sprintf("vm%d", i), hardware.NDv4SKUName, false)
		}
	})
	se.Run()
	if h.Status() != JobDone || h.Err() != nil {
		t.Fatalf("job = %v err = %v", h.Status(), h.Err())
	}
	return h, s
}

func TestReconfigAdoptsOnCapacityGrowth(t *testing.T) {
	hOff, sOff := runGrowthScenario(t, false)
	if st := sOff.Stats(); st.Reconfigs != 0 || st.ReconfigWins != 0 || st.ReconfigSkips != 0 {
		t.Fatalf("disabled controller counted: %+v", st)
	}
	if hOff.Execution().Reconfigs() != 0 {
		t.Fatal("disabled controller re-bound an execution")
	}
	h, sOn := runGrowthScenario(t, true)
	st := sOn.Stats()
	if st.Reconfigs == 0 || st.ReconfigWins == 0 {
		t.Fatalf("no adoption under capacity growth: %+v", st)
	}
	if got := h.Execution().Reconfigs(); got == 0 {
		t.Fatal("execution adopted no re-plan")
	}
	// The adopted plan actually moved a binding relative to the baseline arm,
	// and the report records the reconfiguration.
	changed := 0
	for cap, d := range h.Execution().Plan().Decisions {
		od := hOff.Execution().Plan().Decisions[cap]
		if !decisionEquivalent(od, d) {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("adopted plan is equivalent to the never-reconfigured plan")
	}
	marked := 0
	for _, s := range h.Report().Decisions {
		if len(s) > 14 && s[len(s)-14:] == "(reconfigured)" {
			marked++
		}
	}
	if marked == 0 {
		t.Fatalf("report does not record reconfigured decisions: %v", h.Report().Decisions)
	}
	// Evaluations resolve exhaustively: every one is a win, a skip or a
	// conflict (serial mode has no conflicts).
	if st.Reconfigs != st.ReconfigWins+st.ReconfigSkips+st.ReconfigConflicts {
		t.Fatalf("evaluation accounting leaks: %+v", st)
	}
}

func TestReconfigSkipsWhenObjectiveUnmoved(t *testing.T) {
	// A MinCost job: per-task cost is parallelism-independent, so fleet
	// growth cannot improve the objective and every evaluation must skip.
	se, cl, s := reconfigTestbed(t, 4, true, Config{})
	job := wideVideoJob()
	job.Constraint = workflow.MinCost
	h, err := s.Submit("alice", job, SubmitOptions{RelaxFloor: true})
	if err != nil {
		t.Fatal(err)
	}
	var before map[string]string
	se.After(10, func() {
		before = map[string]string{}
		for cap, d := range h.Execution().Plan().Decisions {
			before[cap] = fmt.Sprintf("%s/%v/%d", d.Implementation, d.Config, d.Parallelism)
		}
		cl.AddVM("vm1", hardware.NDv4SKUName, false)
	})
	se.Run()
	if h.Status() != JobDone {
		t.Fatalf("job = %v err = %v", h.Status(), h.Err())
	}
	st := s.Stats()
	if st.Reconfigs == 0 {
		t.Fatalf("capacity change did not trigger evaluation: %+v", st)
	}
	if st.ReconfigWins != 0 {
		t.Fatalf("MinCost adopted a re-plan fleet growth cannot improve: %+v", st)
	}
	for cap, d := range h.Execution().Plan().Decisions {
		if got := fmt.Sprintf("%s/%v/%d", d.Implementation, d.Config, d.Parallelism); got != before[cap] {
			t.Fatalf("decision for %s changed without a win: %s -> %s", cap, before[cap], got)
		}
	}
}

func TestReconfigRepeatedChurnNeverStrands(t *testing.T) {
	// Regression: rebind tears down workers, and each teardown releases an
	// allocation that the cluster manager immediately re-grants; a re-granted
	// worker of the same stage must not start a task mid-teardown (that task
	// was silently abandoned and the job stranded). Several overlapping jobs
	// and back-to-back fleet events maximize rebind traffic.
	se, cl, s := reconfigTestbed(t, 8, true, Config{})
	var handles []*Handle
	for i := 0; i < 6; i++ {
		h, err := s.Submit(fmt.Sprintf("tenant-%d", i%3), wideVideoJob(), SubmitOptions{RelaxFloor: true, KeepEngines: true})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for i, at := range []float64{20, 25, 30, 60} {
		i, at := i, at
		se.After(sim.Duration(at), func() {
			cl.AddVM(fmt.Sprintf("churn%d", i), hardware.NDv4SKUName, true)
		})
	}
	se.After(90, func() { cl.PreemptVM("churn0") })
	se.Run()
	for i, h := range handles {
		if !h.Status().Terminal() {
			t.Fatalf("job %d stranded in %v after churn", i, h.Status())
		}
		if h.Status() != JobDone {
			t.Fatalf("job %d = %v err = %v", i, h.Status(), h.Err())
		}
	}
}

func TestReconfigOffLoopSearchCommits(t *testing.T) {
	// The off-loop path: re-plans run on the PR-4 worker pool and commit
	// optimistically on the loop. The job must complete and the evaluation
	// accounting must balance (wins + skips + conflicts).
	se := sim.NewEngine()
	cl := cluster.New(se, hardware.DefaultCatalog())
	cl.AddVM("vm0", hardware.NDv4SKUName, false)
	loop := sim.NewLoop(se)
	rt, err := New(Config{
		Engine: se, Cluster: cl, Library: agents.DefaultLibrary(),
		Loop: loop, PlanWorkers: 2, Reconfig: &ReconfigConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(se, rt, 4)
	go loop.Run()

	done := make(chan *Handle, 1)
	loop.Post(func() {
		h, err := s.Submit("alice", wideVideoJob(), SubmitOptions{RelaxFloor: true})
		if err != nil {
			t.Error(err)
			close(done)
			return
		}
		h.Observe(observerFuncs{
			done: func(h *Handle) { done <- h },
			// Churn only once the job is actually running (its off-loop
			// admission search has committed), so the capacity change lands
			// mid-flight rather than invalidating the admission search.
			started: func(*Handle) {
				se.After(2, func() {
					cl.AddVM("vm1", hardware.NDv4SKUName, false)
					cl.AddVM("vm2", hardware.NDv4SKUName, false)
				})
			},
		})
	})
	h := <-done
	// Close drains the loop — in-flight reconfig searches resolve through
	// their holds before Run exits — and afterwards this goroutine is the
	// scheduler's sole accessor, so reading stats directly is race-free.
	loop.Close()
	s.StopPlanSearch()
	st := s.Stats()
	if h == nil || h.Status() != JobDone {
		t.Fatalf("off-loop reconfig job did not complete: %+v", h)
	}
	if st.Reconfigs == 0 {
		t.Fatalf("no evaluations dispatched: %+v", st)
	}
	if st.Reconfigs != st.ReconfigWins+st.ReconfigSkips+st.ReconfigConflicts {
		t.Fatalf("evaluation accounting leaks: %+v", st)
	}
}
