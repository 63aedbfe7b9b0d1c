package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// LoadPoint is one offered-load level in the sweep.
type LoadPoint struct {
	RateJobsPerS  float64
	Jobs          int
	Completed     int
	Failed        int
	MeanLatencyS  float64
	MeanQueueS    float64
	TotalEnergyWh float64
	MakespanS     float64
}

// LoadSweepResult drives one shared runtime's scheduler with Poisson job traces at
// increasing arrival rates — the "AI Workflows-as-a-Service" operating curve
// (§5): latency stays flat while the cluster has headroom, then queueing
// delay grows as the offered load saturates it.
type LoadSweepResult struct {
	Points []LoadPoint
}

// LoadSweep runs the sweep over the given arrival rates (jobs/s) with a
// fixed trace horizon.
func LoadSweep(rates []float64, horizonS float64, seed int64) (*LoadSweepResult, error) {
	res := &LoadSweepResult{}
	for _, rate := range rates {
		pt, err := runLoadPoint(rate, horizonS, seed)
		if err != nil {
			return nil, fmt.Errorf("load sweep at %.3f jobs/s: %w", rate, err)
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

func runLoadPoint(rate, horizonS float64, seed int64) (LoadPoint, error) {
	tb, err := NewTestbed(core.Config{})
	if err != nil {
		return LoadPoint{}, err
	}
	sched := core.NewScheduler(tb.Engine, tb.Runtime, 4)
	trace, err := workload.PoissonTrace(workload.DefaultMix(), rate, horizonS, seed)
	if err != nil {
		return LoadPoint{}, err
	}
	// The whole arrival trace is scheduled up front, in trace order; ties
	// fire in scheduling order.
	// Engines stay warm across jobs: the sweep's shared runtime owns their
	// lifecycle.
	handles := make([]*core.Handle, 0, len(trace))
	for _, arr := range trace {
		tb.Engine.Schedule(sim.Time(arr.AtS), func() {
			h, err := sched.Submit(arr.Tenant, arr.Job, core.SubmitOptions{RelaxFloor: true, KeepEngines: true})
			if err != nil {
				panic(err) // generator only emits valid jobs
			}
			handles = append(handles, h)
		})
	}
	tb.Engine.Run()

	pt := LoadPoint{RateJobsPerS: rate, Jobs: len(trace)}
	var latSum, queueSum float64
	for _, h := range handles {
		switch h.Status() {
		case core.JobDone:
			pt.Completed++
			latSum += h.Report().MakespanS + h.QueueDelayS()
			queueSum += h.QueueDelayS()
		case core.JobFailed:
			pt.Failed++
		default:
			return LoadPoint{}, fmt.Errorf("job stuck in %v", h.Status())
		}
	}
	if pt.Completed > 0 {
		pt.MeanLatencyS = latSum / float64(pt.Completed)
		pt.MeanQueueS = queueSum / float64(pt.Completed)
	}
	pt.MakespanS = tb.Engine.Now().Seconds()
	pt.TotalEnergyWh = tb.Cluster.GPUEnergyJoules(0, pt.MakespanS) / 3600
	return pt, nil
}

// String renders the operating curve.
func (r *LoadSweepResult) String() string {
	var b strings.Builder
	b.WriteString("AIWaaS load sweep (mixed tenants, Poisson arrivals, concurrency 4)\n")
	fmt.Fprintf(&b, "%-12s %6s %6s %12s %12s %12s\n",
		"rate(job/s)", "jobs", "done", "latency(s)", "queue(s)", "energy(Wh)")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-12.3f %6d %6d %12.1f %12.1f %12.1f\n",
			p.RateJobsPerS, p.Jobs, p.Completed, p.MeanLatencyS, p.MeanQueueS, p.TotalEnergyWh)
	}
	return b.String()
}
