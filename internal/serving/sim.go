package serving

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/sim"
	"repro/internal/workload"
)

// scenario declares one sim-time comparison: the job burst, the shard stack
// it lands on, the trace replayed beside it, and what each arm switches on.
// Both arms replay identical traces entirely inside the simulation (no wall
// clock, no loop goroutine), so for fixed seeds every number a scenario
// reports is deterministic and machine-independent and CI can gate it.
type scenario struct {
	name string
	// The Poisson job burst.
	mix      workload.MixSpec
	rate     float64
	horizonS float64
	seed     int64
	// The shard stack: a fixed on-demand fleet, the admission bound, and the
	// manager's engine-rebalancing period (0 = off), the same in both arms.
	vms              int
	maxConcurrent    int
	rebalancePeriodS float64
	// What is replayed beside the burst: spot VMs arriving, never evicted
	// (workload.ChurnTrace, when churnAddRate > 0), and injected faults (when
	// faults.HorizonS > 0).
	churnAddRate  float64
	churnHorizonS float64
	churnSeed     int64
	faults        workload.FaultSpec
	// base is the arm the feature is measured against.
	base, feature arm
}

// arm names one side of a comparison and the runtime features it turns on
// (the scenario sets the rebalancing period).
type arm struct {
	mode string
	cfg  core.Config
}

// simJob is one admitted job of a replay.
type simJob struct {
	arr *workload.Arrival
	h   *core.Handle
	// doneS is when the job completed successfully (unset otherwise).
	doneS float64
}

// simArm is one replay of a scenario's traces against a fresh shard stack,
// and the one observer of every job it admits.
type simArm struct {
	mode  string
	jobs  int // arrivals replayed
	se    *sim.Engine
	cl    *cluster.Cluster
	sched *core.Scheduler

	// admitted is indexed by JobID-1; rejected holds Submit's synchronous
	// refusals in arrival order; done lists successful jobs in completion
	// order (float sums over it are order-sensitive); failed counts admitted
	// jobs that settled any other way.
	admitted  []simJob
	rejected  []error
	done      []*simJob
	failed    int
	peakQueue int
}

// run builds the scenario's traces once and replays them through both arms.
func (sc scenario) run() (base, feature *simArm, err error) {
	arrivals, err := workload.PoissonTrace(sc.mix, sc.rate, sc.horizonS, sc.seed)
	if err != nil {
		return nil, nil, err
	}
	var churn []workload.FleetEvent
	if sc.churnAddRate > 0 {
		if churn, err = workload.ChurnTrace(hardware.NDv4SKUName, sc.churnAddRate, 0, sc.churnHorizonS, sc.churnSeed); err != nil {
			return nil, nil, err
		}
	}
	var faults []workload.FaultEvent
	if sc.faults.HorizonS > 0 {
		if faults, err = workload.FaultTrace(sc.faults); err != nil {
			return nil, nil, err
		}
	}
	if base, err = sc.runArm(sc.base, arrivals, churn, faults); err != nil {
		return nil, nil, err
	}
	if feature, err = sc.runArm(sc.feature, arrivals, churn, faults); err != nil {
		return nil, nil, err
	}
	return base, feature, nil
}

// runArm replays the traces against one freshly-provisioned shard stack.
// Arrivals are scheduled before trace events, each in trace order: events
// that tie on time fire in scheduling order, and every pinned number depends
// on it. A job failing is an outcome; a job the drain left in no terminal
// state is an error.
func (sc scenario) runArm(arm arm, arrivals []workload.Arrival, churn []workload.FleetEvent, faults []workload.FaultEvent) (*simArm, error) {
	cfg := arm.cfg
	cfg.RebalancePeriod = sim.Duration(sc.rebalancePeriodS)
	se, cl, rt, err := newStack(sc.vms, cfg)
	if err != nil {
		return nil, err
	}
	a := &simArm{mode: arm.mode, jobs: len(arrivals), se: se, cl: cl, sched: core.NewScheduler(se, rt, sc.maxConcurrent)}
	// Never regrown: done points into it.
	a.admitted = make([]simJob, 0, len(arrivals))
	for i := range arrivals {
		arr := &arrivals[i]
		se.After(sim.Duration(arr.AtS), func() { a.submit(arr) })
	}
	for _, ev := range churn {
		se.After(sim.Duration(ev.AtS), func() {
			switch ev.Kind {
			case workload.FleetAddVM:
				cl.AddVM(ev.VM, ev.SKU, ev.Spot)
			case workload.FleetPreemptVM:
				cl.PreemptVM(ev.VM)
			}
		})
	}
	for _, ev := range faults {
		se.After(sim.Duration(ev.AtS), func() { a.sched.Inject(ev) })
	}
	se.Run()

	stranded := 0
	for _, j := range a.admitted {
		if !j.h.Status().Terminal() {
			stranded++
		}
	}
	if stranded > 0 {
		return nil, fmt.Errorf("serving: %s arm %s stranded %d of %d jobs", sc.name, arm.mode, stranded, len(arrivals))
	}
	return a, nil
}

func (a *simArm) submit(arr *workload.Arrival) {
	h, err := a.sched.Submit(arr.Tenant, arr.Job, core.SubmitOptions{RelaxFloor: true, KeepEngines: true})
	if err != nil {
		a.rejected = append(a.rejected, err)
		return
	}
	a.admitted = append(a.admitted, simJob{arr: arr, h: h})
	a.peakQueue = max(a.peakQueue, a.sched.QueueDepth())
	h.Observe(a)
}

// JobStarted, JobAttempt and JobDone make the arm its jobs' core.JobObserver.
func (a *simArm) JobStarted(*core.Handle) {}

func (a *simArm) JobAttempt(*core.Handle, core.AttemptRecord) {}

func (a *simArm) JobDone(h *core.Handle) {
	if h.Status() != core.JobDone {
		a.failed++
		return
	}
	j := &a.admitted[h.ID()-1]
	j.doneS = a.se.Now().Seconds()
	a.done = append(a.done, j)
}

// completion summarizes submit→done over the successful jobs, in simulated
// seconds: mean, p95, and the makespan (the last successful completion).
func (a *simArm) completion() (meanS, p95S, makespanS float64) {
	if len(a.done) == 0 {
		return 0, 0, 0
	}
	times := make([]float64, len(a.done))
	for i, j := range a.done {
		times[i] = j.doneS - j.arr.AtS
		meanS += times[i]
		makespanS = max(makespanS, j.doneS)
	}
	sort.Float64s(times)
	return meanS / float64(len(times)), percentile(times, 0.95), makespanS
}
