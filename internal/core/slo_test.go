package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/agents"
	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/optimizer"
	"repro/internal/sim"
	"repro/internal/workflow"
)

func sloQualityVideoJob() workflow.Job {
	// MAX_QUALITY picks the large high-quality models, leaving the
	// degradation cascade real headroom (70B → 8B summarization is ~13×
	// cheaper at ~2× the latency).
	return workflow.Job{
		Description: "List objects shown in the videos",
		Inputs:      []workflow.Input{workflow.VideoInput("a.mov", 120, 30, 24)},
		Constraint:  workflow.MaxQuality,
	}
}

// The hysteresis property: over randomized pressure traces the overload
// controller never changes state on an observation inside the (low, high)
// band — engage requires reaching the high watermark, disengage requires
// falling back to the low one — and the whole decision sequence is a
// deterministic function of the trace (replaying it reproduces every
// transition and counter exactly).
func TestOverloadControllerHysteresisProperty(t *testing.T) {
	for seed := int64(0); seed < 32; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ctrl := overloadController{high: 2, low: 1}
		p := 1.5
		trace := make([]float64, 0, 2000)
		states := make([]bool, 0, 2000)
		for i := 0; i < 2000; i++ {
			p += rng.Float64()*0.6 - 0.3
			if p < 0 {
				p = 0
			}
			if p > 3 {
				p = 3
			}
			trace = append(trace, p)
			ctrl.observe(p)
			states = append(states, ctrl.degraded)
		}
		for i := 1; i < len(states); i++ {
			if states[i] == states[i-1] {
				continue
			}
			if trace[i] > ctrl.low && trace[i] < ctrl.high {
				t.Fatalf("seed %d: state flapped to %v on in-band pressure %.3f at step %d",
					seed, states[i], trace[i], i)
			}
			if states[i] && trace[i] < ctrl.high {
				t.Fatalf("seed %d: engaged below the high watermark (%.3f) at step %d", seed, trace[i], i)
			}
			if !states[i] && trace[i] > ctrl.low {
				t.Fatalf("seed %d: disengaged above the low watermark (%.3f) at step %d", seed, trace[i], i)
			}
		}
		// The replay also checks observe's report, which the scheduler counts
		// as overload enters and exits.
		replay := overloadController{high: 2, low: 1}
		prev := false
		for i, p := range trace {
			changed := replay.observe(p)
			if replay.degraded != states[i] {
				t.Fatalf("seed %d: replay diverged at step %d", seed, i)
			}
			if changed != (states[i] != prev) {
				t.Fatalf("seed %d: observe reported change=%v at step %d, state %v -> %v", seed, changed, i, prev, states[i])
			}
			prev = states[i]
		}
	}
}

func TestSLOShedAtQueueBound(t *testing.T) {
	se, s := schedWith(t, 1, Config{SLO: &SLOConfig{
		TenantTiers: map[string]string{"alice": "bronze"},
		QueueBound:  1,
	}})
	h1, err := s.Submit("alice", schedVideoJob(), SubmitOptions{RelaxFloor: true})
	if err != nil {
		t.Fatal(err)
	}
	// The first submission fills alice's one queue slot; the second finds
	// the bound reached and is shed synchronously — no handle, no JobID.
	h2, err := s.Submit("alice", schedVideoJob(), SubmitOptions{RelaxFloor: true})
	if h2 != nil || err == nil {
		t.Fatalf("expected shed, got handle %v err %v", h2, err)
	}
	if ErrorCodeOf(err) != CodeShedOverload {
		t.Fatalf("error code = %q, want shed_overload", ErrorCodeOf(err))
	}
	var je *JobError
	if !errors.As(err, &je) || je.Op != "admission" {
		t.Fatalf("shed error not a typed admission JobError: %v", err)
	}
	se.Run()
	if h1.Status() != JobDone {
		t.Fatalf("admitted job = %v, want done", h1.Status())
	}
	st := s.Stats()
	if st.Submitted != 1 || st.SLOShed != 1 {
		t.Fatalf("submitted %d shed %d, want 1/1", st.Submitted, st.SLOShed)
	}
	tenants := s.SLOTenants()
	if len(tenants) != 1 || tenants[0].Shed != 1 || tenants[0].Admitted != 1 || tenants[0].Class != "bronze" {
		t.Fatalf("tenant stats = %+v", tenants)
	}
}

func TestSLOBudgetExhausted(t *testing.T) {
	se, s := schedWith(t, 2, Config{SLO: &SLOConfig{BudgetUSD: 1e-9}})
	h1, err := s.Submit("alice", schedVideoJob(), SubmitOptions{RelaxFloor: true})
	if err != nil {
		t.Fatal(err)
	}
	se.Run()
	if h1.Status() != JobDone {
		t.Fatalf("first job = %v, want done", h1.Status())
	}
	// The first launch charged its plan's estimated cost, which dwarfs the
	// configured budget; the next submission is rejected at admission.
	if _, err := s.Submit("alice", schedVideoJob(), SubmitOptions{RelaxFloor: true}); ErrorCodeOf(err) != CodeBudgetExhausted {
		t.Fatalf("error code = %q (%v), want budget_exhausted", ErrorCodeOf(err), err)
	}
	st := s.Stats()
	if st.SLOBudgetExhausted != 1 {
		t.Fatalf("SLOBudgetExhausted = %d, want 1", st.SLOBudgetExhausted)
	}
	tenants := s.SLOTenants()
	if len(tenants) != 1 || tenants[0].BudgetExhausted != 1 || tenants[0].CostSpentUSD <= 0 {
		t.Fatalf("tenant stats = %+v", tenants)
	}
}

func TestSLODegradeAtAdmissionUnderOverload(t *testing.T) {
	// Baseline arm: no SLO tiers, same jobs — records the undegraded cost.
	se0, s0 := schedTestbed(t, 1)
	var baseCost float64
	var basePlan *optimizer.Plan
	for i := 0; i < 3; i++ {
		h, err := s0.Submit("alice", sloQualityVideoJob(), SubmitOptions{RelaxFloor: true})
		if err != nil {
			t.Fatal(err)
		}
		h.Observe(observerFuncs{done: func(h *Handle) {
			basePlan = h.Execution().Plan()
			baseCost += basePlan.EstCostUSD
		}})
	}
	se0.Run()

	se, s := schedWith(t, 1, Config{SLO: &SLOConfig{
		TenantTiers:   map[string]string{"alice": "bronze"},
		HighWatermark: 1.5,
		LowWatermark:  0.5,
	}})
	var cost float64
	handles := make([]*Handle, 0, 3)
	for i := 0; i < 3; i++ {
		h, err := s.Submit("alice", sloQualityVideoJob(), SubmitOptions{RelaxFloor: true})
		if err != nil {
			t.Fatal(err)
		}
		h.Observe(observerFuncs{done: func(h *Handle) { cost += h.Execution().Plan().EstCostUSD }})
		handles = append(handles, h)
	}
	// Three queued jobs against one slot: pressure 3.0 crossed the 1.5
	// watermark during submission, so the controller is engaged before the
	// first job starts and bronze admissions take the degraded path.
	if !s.OverloadActive() {
		t.Fatal("overload controller not engaged at pressure 3.0")
	}
	se.Run()
	for i, h := range handles {
		if h.Status() != JobDone {
			t.Fatalf("job %d = %v (%v), want done", i, h.Status(), h.Err())
		}
	}
	st := s.Stats()
	if st.SLODegradedAdmits == 0 {
		t.Fatal("no degraded admissions under overload")
	}
	if cost >= baseCost {
		t.Fatalf("degraded cost $%.4f not below undegraded $%.4f", cost, baseCost)
	}
	// Every swapped capability runs an implementation that is cheaper than
	// the undegraded one on the capability's work and no more than bronze's
	// MaxDegradeLatencyX slower (profile-level, like-for-like).
	maxLatX := DefaultSLOClasses()["bronze"].MaxDegradeLatencyX
	snap, _ := s.rt.capacityClass()
	swaps := 0
	for _, h := range handles {
		work := h.Execution().Decomposition().Graph.CapabilityWork()
		for cap, base := range basePlan.Decisions {
			got := h.Execution().Plan().Decisions[cap].Implementation
			if got == base.Implementation {
				continue
			}
			swaps++
			var cur, alt alternative
			for _, a := range s.rt.alternatives(cap, base.Implementation, work[cap], snap) {
				switch a.impl {
				case base.Implementation:
					cur = a
				case got:
					alt = a
				}
			}
			if cur.impl == "" || alt.impl == "" || alt.cost >= cur.cost || alt.latency > cur.latency*maxLatX {
				t.Fatalf("%s swapped %+v for %+v: want cheaper and within %gx the latency", cap, cur, alt, maxLatX)
			}
		}
	}
	if swaps == 0 {
		t.Fatal("no capability was swapped under overload")
	}
	// Draining the queue dropped pressure to 0 ≤ low watermark: the
	// controller must have disengaged (no flapping in between — the
	// property test above covers the band).
	if s.OverloadActive() {
		t.Fatal("overload controller still engaged after drain")
	}
	if st.OverloadEnters != 1 {
		t.Fatalf("OverloadEnters = %d, want 1", st.OverloadEnters)
	}
}

func TestSLOAttainmentCounters(t *testing.T) {
	se, s := schedWith(t, 2, Config{SLO: &SLOConfig{
		Classes: map[string]SLOClass{
			"gold":   {Name: "gold", LatencyTargetS: 1e9},
			"bronze": {Name: "bronze", LatencyTargetS: 1e-9, Degradable: true},
		},
		DefaultClass: "gold",
		TenantTiers:  map[string]string{"bob": "bronze"},
	}})
	ha, _ := s.Submit("alice", schedVideoJob(), SubmitOptions{RelaxFloor: true})
	hb, _ := s.Submit("bob", schedVideoJob(), SubmitOptions{RelaxFloor: true})
	se.Run()
	if ha.Status() != JobDone || hb.Status() != JobDone {
		t.Fatalf("jobs = %v/%v, want done", ha.Status(), hb.Status())
	}
	st := s.Stats()
	if st.SLOMet != 1 || st.SLOMissed != 1 {
		t.Fatalf("met/missed = %d/%d, want 1/1", st.SLOMet, st.SLOMissed)
	}
	for _, ts := range s.SLOTenants() {
		switch ts.Tenant {
		case "alice":
			if ts.SLOMet != 1 || ts.SLOMissed != 0 {
				t.Fatalf("alice = %+v", ts)
			}
		case "bob":
			if ts.SLOMet != 0 || ts.SLOMissed != 1 {
				t.Fatalf("bob = %+v", ts)
			}
		}
	}
	if ha.SLOClass() != "gold" || hb.SLOClass() != "bronze" {
		t.Fatalf("classes = %q/%q", ha.SLOClass(), hb.SLOClass())
	}
}

func TestSLOUnknownClassRejected(t *testing.T) {
	_, s := schedWith(t, 2, Config{SLO: &SLOConfig{}})
	if _, err := s.Submit("alice", schedVideoJob(), SubmitOptions{RelaxFloor: true, SLOClass: "platinum"}); err == nil {
		t.Fatal("unknown per-job SLO class accepted")
	}
}

// TestNewRejectsInvalidSLOConfig: core.New is the one check of an SLO
// configuration, and a bad one is an error naming what is wrong, not a panic.
func TestNewRejectsInvalidSLOConfig(t *testing.T) {
	se := sim.NewEngine()
	cl := cluster.New(se, hardware.DefaultCatalog())
	for _, tc := range []struct {
		name string
		slo  SLOConfig
		want string
	}{
		{"inverted watermarks", SLOConfig{HighWatermark: 1, LowWatermark: 2}, "low watermark"},
		{"equal watermarks", SLOConfig{HighWatermark: 1.5, LowWatermark: 1.5}, "low watermark"},
		{"unknown default class", SLOConfig{DefaultClass: "platinum"}, `unknown default SLO class "platinum"`},
		{"unknown tenant class", SLOConfig{TenantTiers: map[string]string{"alice": "platinum"}}, `tenant "alice" mapped to unknown SLO class "platinum"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			slo := tc.slo
			rt, err := New(Config{Engine: se, Cluster: cl, Library: agents.DefaultLibrary(), SLO: &slo})
			if err == nil || rt != nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New = %v, %v; want an error containing %q", rt, err, tc.want)
			}
		})
	}
}
