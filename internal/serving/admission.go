package serving

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workflow"
)

// AdmissionOptions shapes the admission scenario's burst.
type AdmissionOptions struct {
	// Jobs is the burst size; Shapes the number of structurally-distinct job
	// shapes in it (each repeats Jobs/Shapes times, interleaved — repeats are
	// what the singleflight layer and the plan caches absorb, distinct shapes
	// are what the worker pool parallelizes).
	Jobs   int
	Shapes int
	// Trials replays the burst this many times per arm, keeping the
	// best-plans/sec trial (wall-clock noise is one-sided).
	Trials int
}

// DefaultAdmissionOptions is the benchmark configuration: a 256-job burst of
// 64 distinct shapes, best of three.
func DefaultAdmissionOptions() AdmissionOptions {
	return AdmissionOptions{Jobs: 256, Shapes: 64, Trials: 3}
}

const (
	// admissionTenants spreads the burst across this many tenants (fair-share
	// admission interleaves them); admissionVMs sizes the shard's cluster.
	// The whole burst is admitted at once — admission-bound, not
	// execution-bound, is the regime the scenario isolates — and the parallel
	// arm's worker pool takes GOMAXPROCS workers.
	admissionTenants = 8
	admissionVMs     = 2
)

// AdmissionResult is the measurement for one admission architecture.
type AdmissionResult struct {
	Mode string
	Jobs int
	// WallS is the wall-clock time from the first submission post until the
	// last job of the burst was admitted (planned and started).
	WallS       float64
	PlansPerSec float64
	// SubmitP50Ms/P95Ms are per-job submit→admission latencies.
	SubmitP50Ms float64
	SubmitP95Ms float64
	// Scheduler counters after the burst (zero in the serial arm).
	PlanSearches     int
	SingleflightHits int
	PlanConflicts    int
	// ConflictFrac is PlanConflicts over admissions.
	ConflictFrac float64
	// SubmitErrors counts synchronous submission failures (must be zero).
	SubmitErrors int
}

// AdmissionComparison pits parallel off-loop admission against the serial
// inline baseline on the same burst.
type AdmissionComparison struct {
	Serial   AdmissionResult
	Parallel AdmissionResult
	// SpeedupX = Parallel.PlansPerSec / Serial.PlansPerSec.
	SpeedupX float64
}

// admissionJob builds the shape-th distinct job of the burst: a newsfeed
// workflow whose topic fan-out and quality floor vary per shape, so every
// shape decomposes to a different DAG and keys a different plan search.
func admissionJob(shape int) workflow.Job {
	inputs := []workflow.Input{{Name: fmt.Sprintf("user-%d", shape), Kind: workflow.InputUser}}
	for t := 0; t <= shape%3; t++ {
		inputs = append(inputs, workflow.Input{
			Name:  fmt.Sprintf("topic-%d-%d", shape, t),
			Kind:  workflow.InputTopic,
			Attrs: map[string]float64{"queries": float64(2 + shape%4)},
		})
	}
	return workflow.Job{
		Description: fmt.Sprintf("Generate social media newsfeed variant %d", shape),
		Inputs:      inputs,
		Constraint:  workflow.MinLatency,
		// The jitter keeps every shape's plan key distinct without changing
		// which candidates clear the floor.
		MinQuality: 0.05 + float64(shape)*1e-9,
	}
}

// RunAdmission replays a bursty multi-tenant submission storm against one
// runtime shard (engine + cluster + scheduler + sim.Loop, exactly the stack
// an api.Pool shard runs) twice — once with admission's plan search
// serialized inline on the loop goroutine and once with the off-loop
// plan-search worker pool and optimistic snapshot commit — and reports
// plans/sec, submit-to-admission latency percentiles and the
// singleflight/conflict counters.
func RunAdmission(opts AdmissionOptions) (*AdmissionComparison, error) {
	if opts.Jobs <= 0 || opts.Shapes <= 0 || opts.Shapes > opts.Jobs || opts.Trials <= 0 {
		return nil, fmt.Errorf("serving: invalid admission options %+v", opts)
	}
	best := func(parallel bool) (AdmissionResult, error) {
		return bestOf(opts.Trials,
			func() (AdmissionResult, error) { return runAdmissionArm(opts, parallel) },
			func(r AdmissionResult) float64 { return r.PlansPerSec })
	}
	serial, err := best(false)
	if err != nil {
		return nil, err
	}
	parallel, err := best(true)
	if err != nil {
		return nil, err
	}
	cmp := &AdmissionComparison{Serial: serial, Parallel: parallel}
	if serial.PlansPerSec > 0 {
		cmp.SpeedupX = parallel.PlansPerSec / serial.PlansPerSec
	}
	return cmp, nil
}

// burst is the admission clock: the one observer of every job of the burst,
// stamping when each left the admission queue. All but the submit stamps are
// touched on the loop goroutine only, until done closes.
type burst struct {
	submit, start []time.Time
	// byID maps JobID-1 to the job's index in the burst.
	byID       []int
	arrived    int
	submitErrs int
	done       chan struct{}
}

// arrive counts a job as through admission for the burst clock; submission
// failures count too (none occur), so an error cannot hang the harness.
func (b *burst) arrive() {
	if b.arrived++; b.arrived == len(b.submit) {
		close(b.done)
	}
}

func (b *burst) JobStarted(h *core.Handle) {
	b.start[b.byID[h.ID()-1]] = time.Now()
	b.arrive()
}

func (b *burst) JobAttempt(*core.Handle, core.AttemptRecord) {}

func (b *burst) JobDone(*core.Handle) {}

// runAdmissionArm replays the burst against one shard and measures the
// wall-clock admission curve.
func runAdmissionArm(opts AdmissionOptions, parallel bool) (AdmissionResult, error) {
	se := sim.NewEngine()
	loop := sim.NewLoop(se)
	cfg, mode := core.Config{Engine: se}, "serial"
	if parallel {
		cfg.Loop, mode = loop, "parallel"
	}
	_, _, rt, err := newStack(admissionVMs, cfg)
	if err != nil {
		return AdmissionResult{}, err
	}
	sched := core.NewScheduler(se, rt, opts.Jobs)
	go loop.Run()

	b := &burst{
		submit: make([]time.Time, opts.Jobs),
		start:  make([]time.Time, opts.Jobs),
		done:   make(chan struct{}),
	}
	t0 := time.Now()
	for i := 0; i < opts.Jobs; i++ {
		job := admissionJob(i % opts.Shapes)
		tenant := fmt.Sprintf("tenant-%d", i%admissionTenants)
		b.submit[i] = time.Now()
		if !loop.Post(func() {
			h, err := sched.Submit(tenant, job, core.SubmitOptions{RelaxFloor: true, KeepEngines: true})
			if err != nil {
				b.submitErrs++
				b.arrive()
				return
			}
			b.byID = append(b.byID, i)
			h.Observe(b)
		}) {
			return AdmissionResult{}, fmt.Errorf("serving: admission loop closed mid-burst")
		}
	}
	<-b.done
	wallS := time.Since(t0).Seconds()

	// Drain: the admitted burst runs to completion, and afterwards this
	// goroutine is the scheduler's sole accessor.
	loop.Close()
	sched.StopPlanSearch()
	st := sched.Stats()

	res := AdmissionResult{
		Mode:             mode,
		Jobs:             opts.Jobs,
		WallS:            wallS,
		PlanSearches:     st.PlanSearches,
		SingleflightHits: st.SingleflightHits,
		PlanConflicts:    st.PlanConflicts,
		ConflictFrac:     float64(st.PlanConflicts) / float64(opts.Jobs),
		SubmitErrors:     b.submitErrs,
	}
	if wallS > 0 {
		res.PlansPerSec = float64(opts.Jobs) / wallS
	}
	lats := make([]float64, 0, opts.Jobs)
	for i, started := range b.start {
		if !started.IsZero() {
			lats = append(lats, float64(started.Sub(b.submit[i]).Microseconds())/1000)
		}
	}
	if len(lats) > 0 {
		sort.Float64s(lats)
		res.SubmitP50Ms = percentile(lats, 0.50)
		res.SubmitP95Ms = percentile(lats, 0.95)
	}
	return res, nil
}
