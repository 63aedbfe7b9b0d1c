package workload

import (
	"fmt"
	"math/rand"
	"sort"
)

// FaultKind classifies one injected fault.
type FaultKind int

// Fault kinds. Each names the layer the fault lands in; the victim within
// that layer is chosen at fire time by the event's Pick value, so a trace
// stays replayable even though the set of candidate victims depends on the
// run's own history.
const (
	// FaultEngineCrash takes one serving engine down: active sequences lose
	// their KV cache and re-queue, and the engine reloads weights for the
	// event's DurationS before serving again.
	FaultEngineCrash FaultKind = iota
	// FaultWorkerLoss force-releases one live device allocation (a worker's
	// grant or an engine's), as if only that grant's hardware failed — the
	// host VM stays up.
	FaultWorkerLoss
	// FaultStageTimeout stalls one in-flight worker task by DurationS — a
	// hung stage call that only a watchdog can cut short.
	FaultStageTimeout
	// FaultCallError fails one in-flight or queued engine request with a
	// transient error the caller may retry.
	FaultCallError
)

// String renders the kind.
func (k FaultKind) String() string {
	switch k {
	case FaultEngineCrash:
		return "engine-crash"
	case FaultWorkerLoss:
		return "worker-loss"
	case FaultStageTimeout:
		return "stage-timeout"
	case FaultCallError:
		return "call-error"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultEvent is one replayable fault: at AtS, a fault of Kind fires against
// the victim selected by Pick. Like FleetEvent traces, a fault trace is
// captured once and replayed identically against every arm of a comparison.
type FaultEvent struct {
	AtS  float64
	Kind FaultKind
	// Pick ∈ [0,1) selects the victim among the candidates alive at fire
	// time (index = floor(Pick·n)): the trace pins the random choice without
	// having to know the future victim population.
	Pick float64
	// DurationS is kind-specific: the weight-reload delay for engine
	// crashes, the stall length for stage timeouts, zero otherwise.
	DurationS float64
}

// FaultSpec parameterizes a FaultTrace: independent Poisson processes per
// fault kind over [0, HorizonS).
type FaultSpec struct {
	// Per-kind mean rates in faults/second; zero disables a kind. At least
	// one must be positive.
	EngineCrashRate  float64
	WorkerLossRate   float64
	StageTimeoutRate float64
	CallErrorRate    float64
	// StallS is the stage-timeout stall length; CrashReloadS the engine
	// reload delay after a crash.
	StallS       float64
	CrashReloadS float64
	// HorizonS bounds the trace; Seed makes it replayable.
	HorizonS float64
	Seed     int64
}

// maxFaultEvents bounds a fault trace: Validate rejects a spec that expects
// more events over its horizon (a NaN or infinite rate or horizon among them),
// and FaultTrace one whose draw comes out longer.
const maxFaultEvents = 1 << 20

// faultProcess is one kind's Poisson process and its events' duration.
type faultProcess struct {
	kind      FaultKind
	rate, dur float64
}

// processes lists the spec's per-kind processes in their fixed draw order.
func (spec FaultSpec) processes() [4]faultProcess {
	return [4]faultProcess{
		{FaultEngineCrash, spec.EngineCrashRate, spec.CrashReloadS},
		{FaultWorkerLoss, spec.WorkerLossRate, 0},
		{FaultStageTimeout, spec.StageTimeoutRate, spec.StallS},
		{FaultCallError, spec.CallErrorRate, 0},
	}
}

// Validate reports why FaultTrace would refuse the spec, or nil.
func (spec FaultSpec) Validate() error {
	if spec.HorizonS <= 0 {
		return fmt.Errorf("workload: fault trace horizon must be positive")
	}
	total := 0.0
	for _, r := range spec.processes() {
		if r.rate < 0 {
			return fmt.Errorf("workload: negative %s rate %v", r.kind, r.rate)
		}
		total += r.rate
	}
	if total == 0 {
		return fmt.Errorf("workload: fault trace with all rates zero")
	}
	if !(total*spec.HorizonS <= maxFaultEvents) {
		return fmt.Errorf("workload: fault rate %v over a %vs horizon expects more than %d events", total, spec.HorizonS, maxFaultEvents)
	}
	if spec.StageTimeoutRate > 0 && !(spec.StallS > 0) {
		return fmt.Errorf("workload: stage-timeout faults need a positive StallS")
	}
	if spec.EngineCrashRate > 0 && spec.CrashReloadS < 0 {
		return fmt.Errorf("workload: negative CrashReloadS %v", spec.CrashReloadS)
	}
	return nil
}

// FaultTrace generates a deterministic fault schedule: each enabled kind
// arrives as an independent Poisson process, all drawn from one seeded
// stream in fixed kind order, merged and sorted by time. A fixed spec
// replays the identical fault history.
func FaultTrace(spec FaultSpec) ([]FaultEvent, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	var out []FaultEvent
	for _, r := range spec.processes() {
		if r.rate == 0 {
			continue
		}
		t := 0.0
		for {
			t += expSample(rng, r.rate)
			if t >= spec.HorizonS {
				break
			}
			if len(out) == maxFaultEvents {
				return nil, fmt.Errorf("workload: fault trace drew more than %d events", maxFaultEvents)
			}
			out = append(out, FaultEvent{AtS: t, Kind: r.kind, Pick: rng.Float64(), DurationS: r.dur})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].AtS != out[j].AtS {
			return out[i].AtS < out[j].AtS
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Pick < out[j].Pick
	})
	return out, nil
}
