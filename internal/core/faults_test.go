package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/agents"
	"repro/internal/llmsim"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workflow"
	"repro/internal/workload"
)

// injectEvery schedules periodic fault injections over [fromS, toS) and
// returns a counter of the ones that found a victim.
func injectEvery(se *sim.Engine, s *Scheduler, ev workload.FaultEvent, fromS, toS, stepS float64) *int {
	landed := new(int)
	for at := fromS; at < toS; at += stepS {
		ev := ev
		ev.AtS = at
		se.After(sim.Duration(at), func() {
			if s.Inject(ev) {
				*landed++
			}
		})
	}
	return landed
}

func TestBackoffProperties(t *testing.T) {
	p := FaultPolicy{BackoffBaseS: 0.5, BackoffCapS: 8, JitterFrac: 0.2}.withDefaults()
	rng := rand.New(rand.NewSource(1))
	for attempt := 1; attempt <= 24; attempt++ {
		for trial := 0; trial < 200; trial++ {
			u := rng.Float64()
			d := backoffFor(p, attempt, u)
			if d > p.BackoffCapS {
				t.Fatalf("backoff(%d, %v) = %v exceeds cap %v (jitter must respect the cap)",
					attempt, u, d, p.BackoffCapS)
			}
			if d < p.BackoffBaseS {
				t.Fatalf("backoff(%d, %v) = %v below base %v", attempt, u, d, p.BackoffBaseS)
			}
			base := backoffFor(p, attempt, 0)
			if d < base {
				t.Fatalf("jitter shrank the delay: backoff(%d, %v) = %v < %v", attempt, u, d, base)
			}
			if max := base * (1 + p.JitterFrac); d > max+1e-12 {
				t.Fatalf("jitter overshot its fraction: backoff(%d, %v) = %v > %v", attempt, u, d, max)
			}
			if again := backoffFor(p, attempt, u); again != d {
				t.Fatalf("backoff not deterministic: %v then %v", d, again)
			}
		}
		if attempt > 1 {
			lo, hi := backoffFor(p, attempt-1, 0), backoffFor(p, attempt, 0)
			if hi < lo {
				t.Fatalf("backoff not monotone: attempt %d gives %v after %v", attempt, hi, lo)
			}
		}
	}
}

func TestRecoveryRetriesTransientCallError(t *testing.T) {
	se, s := schedWith(t, 2, Config{Recovery: &FaultPolicy{Seed: 5}})
	h, err := s.Submit("alice", schedVideoJob(), SubmitOptions{RelaxFloor: true})
	if err != nil {
		t.Fatal(err)
	}
	// Three spaced injections: below the default four-attempt budget even if
	// every one lands on the same task.
	landed := injectEvery(se, s, workload.FaultEvent{Kind: workload.FaultCallError, Pick: 0.3}, 5, 35, 10)
	se.Run()
	if *landed == 0 {
		t.Fatal("no call-error injection found a busy engine; the schedule misses the run")
	}
	if h.Status() != JobDone || h.Err() != nil {
		t.Fatalf("status = %v err = %v, want recovery to absorb transient call errors", h.Status(), h.Err())
	}
	st := s.Stats()
	if st.TaskRetries == 0 {
		t.Fatalf("stats = %+v: injected %d call errors but recorded no retries", st, *landed)
	}
	attempts := h.Attempts()
	if len(attempts) == 0 {
		t.Fatal("no attempt history on a job that retried")
	}
	for _, a := range attempts {
		if a.BackoffS <= 0 || a.BackoffS > 8 {
			t.Fatalf("attempt backoff %v outside (0, cap]", a.BackoffS)
		}
		if a.Attempt < 1 || a.Task == "" || a.Err == "" {
			t.Fatalf("malformed attempt record %+v", a)
		}
	}
}

// TestRecoveryDeterministicAcrossRuns replays the identical scenario twice:
// the backoff jitter comes from a stream seeded by (policy seed, execution
// id), so the full attempt history — timestamps, delays, victims — must be
// bit-identical.
func TestRecoveryDeterministicAcrossRuns(t *testing.T) {
	run := func() ([]AttemptRecord, SchedulerStats) {
		se, s := schedWith(t, 2, Config{Recovery: &FaultPolicy{Seed: 5}})
		h, err := s.Submit("alice", schedVideoJob(), SubmitOptions{RelaxFloor: true})
		if err != nil {
			t.Fatal(err)
		}
		injectEvery(se, s, workload.FaultEvent{Kind: workload.FaultCallError, Pick: 0.3}, 5, 35, 10)
		se.Run()
		return h.Attempts(), s.Stats()
	}
	a1, st1 := run()
	a2, st2 := run()
	if !reflect.DeepEqual(a1, a2) {
		t.Fatalf("attempt histories diverged:\n%+v\nvs\n%+v", a1, a2)
	}
	if st1 != st2 {
		t.Fatalf("stats diverged:\n%+v\nvs\n%+v", st1, st2)
	}
}

func TestRetriesExhaustedTypedErrorChain(t *testing.T) {
	se, s := schedWith(t, 2, Config{Recovery: &FaultPolicy{MaxAttempts: 1, Seed: 5}})
	h, err := s.Submit("alice", schedVideoJob(), SubmitOptions{RelaxFloor: true})
	if err != nil {
		t.Fatal(err)
	}
	landed := injectEvery(se, s, workload.FaultEvent{Kind: workload.FaultCallError, Pick: 0.3}, 5, 120, 5)
	se.Run()
	if *landed == 0 {
		t.Fatal("no injection landed")
	}
	if h.Status() != JobFailed {
		t.Fatalf("status = %v, want failed with a one-attempt budget", h.Status())
	}
	if code := ErrorCodeOf(h.Err()); code != CodeRetriesExhausted {
		t.Fatalf("error code = %q, want %q (err: %v)", code, CodeRetriesExhausted, h.Err())
	}
	var je *JobError
	if !errors.As(h.Err(), &je) {
		t.Fatalf("error %v is not a *JobError", h.Err())
	}
	if !errors.Is(h.Err(), llmsim.ErrInjected) {
		t.Fatalf("typed chain lost the root cause: %v", h.Err())
	}
	if st := s.Stats(); st.RetriesExhausted != 1 {
		t.Fatalf("stats = %+v, want one exhausted job", st)
	}
}

func TestJobDeadlineExceeded(t *testing.T) {
	se, s := schedWith(t, 2, Config{Recovery: &FaultPolicy{JobDeadlineS: 5, Seed: 5}})
	h, err := s.Submit("alice", schedVideoJob(), SubmitOptions{RelaxFloor: true})
	if err != nil {
		t.Fatal(err)
	}
	se.Run()
	if h.Status() != JobFailed {
		t.Fatalf("status = %v, want failed: the video job cannot finish in 5s", h.Status())
	}
	if code := ErrorCodeOf(h.Err()); code != CodeDeadlineExceeded {
		t.Fatalf("error code = %q, want %q (err: %v)", code, CodeDeadlineExceeded, h.Err())
	}
	if st := s.Stats(); st.DeadlinesExceeded != 1 {
		t.Fatalf("stats = %+v, want one deadline", st)
	}
}

func TestStageTimeoutWatchdogRecovers(t *testing.T) {
	se, s := schedWith(t, 2, Config{Recovery: &FaultPolicy{StageTimeoutS: 20, Seed: 5}})
	h, err := s.Submit("alice", schedVideoJob(), SubmitOptions{RelaxFloor: true})
	if err != nil {
		t.Fatal(err)
	}
	// Stall in-flight worker tasks far past the watchdog: without the
	// watchdog each stall would add 1000 simulated seconds.
	landed := injectEvery(se, s, workload.FaultEvent{
		Kind: workload.FaultStageTimeout, Pick: 0.5, DurationS: 1000,
	}, 2, 30, 4)
	se.Run()
	if *landed == 0 {
		t.Fatal("no stall landed on a busy worker")
	}
	if h.Status() != JobDone || h.Err() != nil {
		t.Fatalf("status = %v err = %v", h.Status(), h.Err())
	}
	st := s.Stats()
	if st.StageTimeouts == 0 {
		t.Fatalf("stats = %+v: stalls landed but the watchdog never fired", st)
	}
	if rep := h.Report(); rep.MakespanS >= 1000 {
		t.Fatalf("makespan %v: the job waited out a stall instead of cutting it short", rep.MakespanS)
	}
}

// TestStatsFilledCountersStayZeroInRuntime pins the split Counters documents:
// Stats() overwrites breaker trips, key-intern hits/misses and the event
// engine's four counters from their owners, so the runtime's own copy of
// those fields must never be incremented — an increment there would be lost.
func TestStatsFilledCountersStayZeroInRuntime(t *testing.T) {
	se, s := schedWith(t, 2, Config{Recovery: &FaultPolicy{Seed: 5, BreakerThreshold: 1}})
	if _, err := s.Submit("alice", schedVideoJob(), SubmitOptions{RelaxFloor: true}); err != nil {
		t.Fatal(err)
	}
	injectEvery(se, s, workload.FaultEvent{Kind: workload.FaultCallError, Pick: 0.3}, 5, 35, 10)
	se.Run()
	c, st := s.rt.counters, s.Stats()
	if st.BreakerTrips == 0 || st.KeyInternHits+st.KeyInternMisses == 0 || st.EventsProcessed == 0 {
		t.Fatalf("stats = %+v: the scenario no longer exercises the filled counters", st)
	}
	for name, v := range map[string]uint64{
		"BreakerTrips":    uint64(c.BreakerTrips),
		"KeyInternHits":   c.KeyInternHits,
		"KeyInternMisses": c.KeyInternMisses,
		"EventsProcessed": c.EventsProcessed,
		"WheelEvents":     c.WheelEvents,
		"OverflowEvents":  c.OverflowEvents,
		"CancelsLazy":     c.CancelsLazy,
	} {
		if v != 0 {
			t.Errorf("runtime counters.%s = %d; Stats() fills it from its owner and would drop this", name, v)
		}
	}
}

func TestInjectOnIdleSchedulerIsNoop(t *testing.T) {
	_, s := schedTestbed(t, 2)
	for _, kind := range []workload.FaultKind{
		workload.FaultEngineCrash, workload.FaultWorkerLoss,
		workload.FaultStageTimeout, workload.FaultCallError,
	} {
		if s.Inject(workload.FaultEvent{Kind: kind, Pick: 0.5, DurationS: 1}) {
			t.Fatalf("%s found a victim on an idle scheduler", kind)
		}
	}
	if st := s.Stats(); st.FaultsInjected != 0 {
		t.Fatalf("stats = %+v, want zero injected", st)
	}
}

func TestErrorCodeOf(t *testing.T) {
	cases := []struct {
		err  error
		want ErrorCode
	}{
		{nil, ""},
		{ErrCanceled, CodeCanceled},
		{&JobError{Code: CodeRetriesExhausted, Op: "t1", Err: errors.New("x")}, CodeRetriesExhausted},
		{&report.WindowCompactedError{}, CodeWindowCompacted},
		{errors.New("anything else"), CodeInternal},
	}
	for _, tc := range cases {
		if got := ErrorCodeOf(tc.err); got != tc.want {
			t.Fatalf("ErrorCodeOf(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}

// Repeated call failures on the summarization engine degrade summarization
// to the cheapest alternative whose chain correctness over the remaining
// graph clears the job floor. llama-8b is the cheapest alternative but sits
// below the 0.9 floor, so the degradation must skip it for llama-70b.
func TestDegradeSkipsCheaperAlternativeBelowTheFloor(t *testing.T) {
	se, s := schedWith(t, 1, Config{Recovery: &FaultPolicy{Seed: 3, DegradeAfter: 1, BreakerThreshold: -1}})
	// One scene: the failed summarization task is the stage's only one, so
	// the failure leaves the stage at a boundary where it can rebind.
	job := sloQualityVideoJob()
	job.Inputs = []workflow.Input{workflow.VideoInput("a.mov", 30, 30, 24)}
	job.MinQuality = 0.9
	h, err := s.Submit("alice", job, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sum := string(agents.CapSummarization)
	se.Step() // admission launches the job on the loop
	ex := h.Execution()
	if got := ex.Plan().Decisions[sum].Implementation; got != agents.ImplNVLM {
		t.Fatalf("MAX_QUALITY summarization = %s, want %s", got, agents.ImplNVLM)
	}
	snap, _ := s.rt.capacityClass()
	alts := s.rt.alternatives(sum, agents.ImplNVLM, ex.Decomposition().Graph.CapabilityWork()[sum], snap)
	if len(alts) < 2 || alts[0].impl != agents.ImplLlama8B || alts[0].quality >= job.MinQuality ||
		alts[1].impl != agents.ImplLlama70B || alts[1].quality < job.MinQuality {
		t.Fatalf("alternatives %+v: want llama-8b (below the floor) cheaper than llama-70b (above it)", alts)
	}
	landed := injectEvery(se, s, workload.FaultEvent{Kind: workload.FaultCallError, Pick: 0.3}, 5, 35, 10)
	se.Run()
	if *landed == 0 {
		t.Fatal("no call-error injection found a busy engine")
	}
	if h.Status() != JobDone {
		t.Fatalf("status = %v err = %v", h.Status(), h.Err())
	}
	if st := s.Stats(); st.Degradations == 0 || !ex.degraded[sum] {
		t.Fatalf("summarization never degraded (stats %+v)", st)
	}
	if got := ex.Plan().Decisions[sum].Implementation; got != agents.ImplLlama70B {
		t.Fatalf("summarization degraded to %s, want %s", got, agents.ImplLlama70B)
	}
}
