package serving

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/workflow"
	"repro/internal/workload"
)

// The three sim-time scenarios: each is a literal over sim.go's runner, its
// result types, and the accounting that is its own.

// videoBurstMix (reconfig, faults) is video understanding only — its frame-extraction / STT /
// detection stages run on elastic worker pools whose parallelism is exactly
// what a bigger fleet unlocks, and every job shares the same two warm serving
// engines, so the whole burst fits a single starting VM. Constrained
// MinLatency, so the objective the controller optimizes is completion time.
var videoBurstMix = workload.MixSpec{
	VideoWeight: 1,
	Tenants:     []string{"alice", "bob", "carol", "dave"},
	Constraint:  workflow.MinLatency,
	VideoScenes: 12,
}

// reconfigScenario is the fleet-churn replay behind BenchmarkReconfig: a
// ~20-job video burst planned against a single VM with four jobs admitted at
// a time, and spot VMs arriving (never evicted: adds are what move plan
// capacity) while the running jobs' later stages are still pending. The
// engine-rebalancing loop runs in both arms — engines scale with the fleet
// either way — so the gain isolates what re-binding worker stages adds.
var reconfigScenario = scenario{
	name: "reconfig",
	mix:  videoBurstMix, rate: 0.4, horizonS: 50, seed: 7,
	vms: 1, maxConcurrent: 4, rebalancePeriodS: 30,
	churnAddRate: 0.02, churnHorizonS: 160, churnSeed: 3,
	base:    arm{mode: "reconfig-off"},
	feature: arm{mode: "reconfig-on", cfg: core.Config{Reconfig: &core.ReconfigConfig{}}},
}

// ReconfigArm is the measurement for one arm of the comparison.
type ReconfigArm struct {
	Mode      string
	Jobs      int
	Completed int
	Failed    int
	// MeanCompletionS / P95CompletionS are per-job submit→done times in
	// simulated seconds; MakespanS is the last completion.
	MeanCompletionS float64
	P95CompletionS  float64
	MakespanS       float64
	// EnergyWh integrates cluster GPU+CPU power over [0, MakespanS].
	EnergyWh float64
	// Controller counters (zero in the off arm).
	Reconfigs         int
	ReconfigWins      int
	ReconfigSkips     int
	ReconfigConflicts int
}

// ReconfigComparison pits reconfiguration-on against reconfiguration-off on
// the same replayed job burst and fleet-churn trace.
type ReconfigComparison struct {
	Off ReconfigArm
	On  ReconfigArm
	// CompletionGainX = Off.MeanCompletionS / On.MeanCompletionS.
	CompletionGainX float64
	// EnergyGainX = Off.EnergyWh / On.EnergyWh.
	EnergyGainX float64
}

// RunReconfig replays the reconfig scenario; every job must complete in both
// arms.
func RunReconfig() (*ReconfigComparison, error) {
	off, on, err := reconfigScenario.run()
	if err != nil {
		return nil, err
	}
	cmp := &ReconfigComparison{Off: reconfigArm(off), On: reconfigArm(on)}
	for _, m := range []ReconfigArm{cmp.Off, cmp.On} {
		if m.Completed != m.Jobs {
			return nil, fmt.Errorf("serving: reconfig arm %s completed %d/%d jobs (%d failed)",
				m.Mode, m.Completed, m.Jobs, m.Failed)
		}
	}
	cmp.CompletionGainX = cmp.Off.MeanCompletionS / cmp.On.MeanCompletionS
	cmp.EnergyGainX = cmp.Off.EnergyWh / cmp.On.EnergyWh
	return cmp, nil
}

func reconfigArm(a *simArm) ReconfigArm {
	st := a.sched.Stats()
	out := ReconfigArm{
		Mode: a.mode, Jobs: a.jobs, Completed: len(a.done), Failed: a.failed + len(a.rejected),
		Reconfigs: st.Reconfigs, ReconfigWins: st.ReconfigWins,
		ReconfigSkips: st.ReconfigSkips, ReconfigConflicts: st.ReconfigConflicts,
	}
	out.MeanCompletionS, out.P95CompletionS, out.MakespanS = a.completion()
	out.EnergyWh = (a.cl.GPUEnergyJoules(0, out.MakespanS) + a.cl.CPUEnergyJoules(0, out.MakespanS)) / 3600
	return out
}

// faultsScenario is the chaos replay behind BenchmarkFaults: the reconfig
// burst on a fixed two-VM fleet under a seeded fault trace dominated by
// transient call errors — the fault class that is terminal without recovery
// and cheap to retry with it — with a sprinkle of engine crashes, worker
// losses and stage stalls. Recovery rides the reconfiguration path: a failure
// is a capacity event, and the re-plan moves remaining stages off the
// unhealthy binding while the failed task waits out its backoff.
var faultsScenario = scenario{
	name: "faults",
	mix:  videoBurstMix, rate: 0.4, horizonS: 50, seed: 7,
	vms: 2, maxConcurrent: 4, rebalancePeriodS: 30,
	faults: workload.FaultSpec{
		EngineCrashRate:  0.01,
		WorkerLossRate:   0.01,
		StageTimeoutRate: 0.01,
		CallErrorRate:    0.08,
		StallS:           60,
		CrashReloadS:     8,
		HorizonS:         240,
		Seed:             11,
	},
	base: arm{mode: "recovery-off"},
	feature: arm{mode: "recovery-on", cfg: core.Config{
		Reconfig: &core.ReconfigConfig{}, Recovery: &core.FaultPolicy{JobDeadlineS: 1800, Seed: 13},
	}},
}

// faultsMeasureHorizonS is the goodput window: a job counts only if it
// completes successfully by this simulated time. Both arms still run to full
// drain; the window makes them comparable on equal terms.
const faultsMeasureHorizonS = 600

// FaultsArm is the measurement for one arm of the comparison.
type FaultsArm struct {
	Mode      string
	Jobs      int
	Completed int
	Failed    int
	// Goodput counts jobs completed successfully by the measure horizon.
	Goodput int
	// Stranded counts jobs in no terminal state after the simulation
	// drained — always zero: RunFaults errors instead of reporting one.
	Stranded int
	// MeanCompletionS averages submit→done over successful jobs only;
	// MakespanS is the last successful completion.
	MeanCompletionS float64
	MakespanS       float64
	// Injection and recovery counters (retries and breaker state are zero
	// in the off arm).
	FaultsInjected    int
	TaskRetries       int
	RetriesExhausted  int
	DeadlinesExceeded int
	Degradations      int
	StageTimeouts     int
	BreakerTrips      int
}

// FaultsComparison pits recovery-on against recovery-off on the same
// replayed job burst and fault trace.
type FaultsComparison struct {
	Off FaultsArm
	On  FaultsArm
	// GoodputGainX = On.Goodput / Off.Goodput.
	GoodputGainX float64
}

// RunFaults replays the faults scenario. Job failures are expected (they are
// the off arm's whole story) and do not error; a stranded job does.
func RunFaults() (*FaultsComparison, error) {
	off, on, err := faultsScenario.run()
	if err != nil {
		return nil, err
	}
	cmp := &FaultsComparison{Off: faultsArm(off), On: faultsArm(on)}
	if cmp.Off.Goodput > 0 {
		cmp.GoodputGainX = float64(cmp.On.Goodput) / float64(cmp.Off.Goodput)
	}
	return cmp, nil
}

func faultsArm(a *simArm) FaultsArm {
	st := a.sched.Stats()
	out := FaultsArm{
		Mode: a.mode, Jobs: a.jobs, Completed: len(a.done), Failed: a.failed + len(a.rejected),
		FaultsInjected: st.FaultsInjected, TaskRetries: st.TaskRetries, RetriesExhausted: st.RetriesExhausted,
		DeadlinesExceeded: st.DeadlinesExceeded, Degradations: st.Degradations,
		StageTimeouts: st.StageTimeouts, BreakerTrips: st.BreakerTrips,
	}
	out.MeanCompletionS, _, out.MakespanS = a.completion()
	for _, j := range a.done {
		if j.doneS <= faultsMeasureHorizonS {
			out.Goodput++
		}
	}
	return out
}

// overloadScenario is the replay behind BenchmarkOverload: a MAX_QUALITY
// video burst over three tenants, one per tier — quality-constrained plans
// pick the large models, so admission-time degradation has real headroom —
// arriving several times faster than the paper's two-VM testbed can serve
// (rate is overloadBaseRate × the caller's multiplier). The base arm is plain
// FIFO admission: every job queues, nothing sheds, nothing degrades. Both
// arms run the reconfiguration controller: under FIFO it never fires (no
// capacity events), under tiers overload entry kicks it so running lower-tier
// work re-plans cheaper mid-flight.
var overloadScenario = scenario{
	name: "overload",
	mix: workload.MixSpec{
		VideoWeight: 1,
		Tenants:     []string{"g1", "s1", "b1"},
		Constraint:  workflow.MaxQuality,
		VideoScenes: 4,
	},
	horizonS: 120, seed: 17,
	vms: 2, maxConcurrent: 4,
	base:    arm{mode: "fifo", cfg: core.Config{Reconfig: &core.ReconfigConfig{}}},
	feature: arm{mode: "slo-tiered", cfg: core.Config{Reconfig: &core.ReconfigConfig{}, SLO: &overloadSLO}},
}

const (
	// overloadBaseRate approximates the fleet's sustainable service rate in
	// jobs per simulated second; DefaultOverloadX is the benchmark's offered
	// load as a multiple of it (RunOverload accepts 2–10×).
	overloadBaseRate = 0.11
	DefaultOverloadX = 4.0
	// overloadMeasureHorizonS is the goodput window: a job counts only if it
	// completes within its tier's latency target and by this simulated time.
	overloadMeasureHorizonS = 900
)

// overloadSLO is the tiered arm's configuration: gold is protected (never
// degraded, tightest latency target), silver and bronze trade quality
// headroom — their floors sit below the workload's own 0.95, giving the
// degradation cascade room — for admission under pressure, with targets and
// queue bounds sized against the fleet's measured fair-share drain rate. The
// class latency targets are the goodput criterion for BOTH arms, so the
// comparison is like-for-like.
var overloadSLO = core.SLOConfig{
	Classes: map[string]core.SLOClass{
		"gold":   {Name: "gold", Rank: 0, LatencyTargetS: 120, MaxQueue: 2},
		"silver": {Name: "silver", Rank: 1, LatencyTargetS: 180, MaxQueue: 2, MinQuality: 0.8, Degradable: true, MaxDegradeLatencyX: 4},
		"bronze": {Name: "bronze", Rank: 2, LatencyTargetS: 240, MaxQueue: 3, MinQuality: 0.7, Degradable: true, MaxDegradeLatencyX: 8},
	},
	DefaultClass:  "silver",
	TenantTiers:   map[string]string{"g1": "gold", "s1": "silver", "b1": "bronze"},
	HighWatermark: 1.5,
	LowWatermark:  0.75,
}

// OverloadArm is the measurement for one arm of the comparison.
type OverloadArm struct {
	Mode      string
	Jobs      int
	Admitted  int
	Completed int
	Failed    int
	// Shed counts submissions rejected synchronously on the tenant queue
	// bound; BudgetRejected on the tenant cost budget. Both are zero in
	// the FIFO arm.
	Shed           int
	BudgetRejected int
	// Goodput counts jobs completed within their tier's latency target and
	// by the measure horizon; TierGoodput splits it by tier.
	Goodput     int
	TierGoodput map[string]int
	// DegradedAdmits counts admissions launched on a degraded cheaper
	// plan; Reconfigs counts mid-flight re-plan adoptions (overload entry
	// kicks the reconfiguration controller).
	DegradedAdmits int
	Reconfigs      int
	OverloadEnters int
	// PeakQueueDepth is the deepest admission queue the arm ever saw —
	// the bounded-queue contract's observable.
	PeakQueueDepth int
	// Stranded counts jobs in no terminal state after the drain — always
	// zero: RunOverload errors instead of reporting one.
	Stranded int
	// EstCostUSD sums the launched plans' estimated costs (the per-job
	// metering figure); MeanCompletionS averages submit→done over
	// successful jobs; MakespanS is the last successful completion.
	EstCostUSD      float64
	MeanCompletionS float64
	MakespanS       float64
}

// OverloadComparison pits SLO-tiered admission against unbounded FIFO on
// the same replayed burst.
type OverloadComparison struct {
	FIFO   OverloadArm
	Tiered OverloadArm
	// GoodputGainX = Tiered.Goodput / FIFO.Goodput.
	GoodputGainX float64
	// QueueBoundTotal is the sum of the per-tenant queue bounds over the
	// tenants that actually appear in the trace — the ceiling the tiered
	// arm's PeakQueueDepth must respect.
	QueueBoundTotal int
}

// RunOverload replays the overload scenario at overloadX times the fleet's
// sustainable rate. Goodput is measured identically in both arms, so the
// tiered arm's gain is exactly the value of shedding early and degrading
// gracefully instead of letting every job rot in an unbounded queue. Shed
// submissions are the tiered arm's whole point and do not error; a stranded
// job — or a tiered queue deeper than the sum of the per-tenant bounds — does.
func RunOverload(overloadX float64) (*OverloadComparison, error) {
	if overloadX < 2 || overloadX > 10 {
		return nil, fmt.Errorf("serving: overload multiplier %.1f outside [2, 10]", overloadX)
	}
	sc := overloadScenario
	sc.rate = overloadBaseRate * overloadX
	fifo, tiered, err := sc.run()
	if err != nil {
		return nil, err
	}
	// The tiered arm's scheduler resolved every tenant of the trace to its
	// class at admission; the FIFO arm's completions are classified against
	// the same targets.
	cmp := &OverloadComparison{}
	tiers := map[string]core.SLOClass{}
	for _, ts := range tiered.sched.SLOTenants() {
		tiers[ts.Tenant] = overloadSLO.Classes[ts.Class]
		cmp.QueueBoundTotal += tiers[ts.Tenant].MaxQueue
	}
	cmp.FIFO, cmp.Tiered = overloadArm(fifo, tiers), overloadArm(tiered, tiers)
	if cmp.FIFO.Goodput > 0 {
		cmp.GoodputGainX = float64(cmp.Tiered.Goodput) / float64(cmp.FIFO.Goodput)
	}
	if cmp.QueueBoundTotal > 0 && cmp.Tiered.PeakQueueDepth > cmp.QueueBoundTotal {
		return nil, fmt.Errorf("serving: tiered queue depth %d exceeded the %d-slot bound",
			cmp.Tiered.PeakQueueDepth, cmp.QueueBoundTotal)
	}
	return cmp, nil
}

func overloadArm(a *simArm, tiers map[string]core.SLOClass) OverloadArm {
	st := a.sched.Stats()
	out := OverloadArm{
		Mode: a.mode, Jobs: a.jobs, Admitted: len(a.admitted), Completed: len(a.done), Failed: a.failed,
		TierGoodput: map[string]int{}, PeakQueueDepth: a.peakQueue,
		DegradedAdmits: st.SLODegradedAdmits, Reconfigs: st.Reconfigs, OverloadEnters: st.OverloadEnters,
	}
	// Synchronous admission rejections are the tiered arm's design; anything
	// untyped is a real failure.
	for _, err := range a.rejected {
		switch core.ErrorCodeOf(err) {
		case core.CodeShedOverload:
			out.Shed++
		case core.CodeBudgetExhausted:
			out.BudgetRejected++
		default:
			out.Failed++
		}
	}
	out.MeanCompletionS, _, out.MakespanS = a.completion()
	for _, j := range a.done {
		out.EstCostUSD += j.h.Execution().Plan().EstCostUSD
		tier := tiers[j.arr.Tenant]
		if j.doneS <= overloadMeasureHorizonS &&
			(tier.LatencyTargetS <= 0 || j.doneS-j.arr.AtS <= tier.LatencyTargetS) {
			out.Goodput++
			out.TierGoodput[tier.Name]++
		}
	}
	return out
}
