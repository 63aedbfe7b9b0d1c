package repro

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/workload"
)

// neutralSLO is a tier set that constrains nothing: one default class with no
// latency target, budget, quality floor or queue bound, and a high watermark
// the pressure signal can never reach, so the overload controller never
// engages and every rung of the ladder is a no-op.
func neutralSLO() core.SLOConfig {
	return core.SLOConfig{
		Classes:       map[string]core.SLOClass{"neutral": {Name: "neutral"}},
		DefaultClass:  "neutral",
		HighWatermark: math.MaxFloat64,
		LowWatermark:  1,
	}
}

// TestSLOTiersOffDifferential is the bit-identical contract for SLO-tiered
// serving: the SLO hooks threaded through the scheduler's admission path
// (class resolution, budget and queue gates, the overload controller,
// settle-time attainment) must not change what the simulation computes unless
// a constraint binds. Twin schedulers replay one seeded multi-tenant trace,
// one without SLO tiers and one with neutralSLO; every arrival's outcome, every
// job's report and timeline, and the scheduler's counters must be the same
// bytes. A third twin whose queue bound binds must differ, so the comparison
// cannot pass without the trace reaching the hooks.
func TestSLOTiersOffDifferential(t *testing.T) {
	trace, err := workload.PoissonTrace(workload.DefaultMix(), 0.5, 120, 11)
	if err != nil || len(trace) < 30 {
		t.Fatalf("trace: %d arrivals, %v", len(trace), err)
	}
	replay := func(slo *core.SLOConfig) (string, *core.Scheduler) {
		tb, err := experiments.NewTestbed(core.Config{SLO: slo})
		if err != nil {
			t.Fatal(err)
		}
		s := core.NewScheduler(tb.Engine, tb.Runtime, 2)
		var log strings.Builder
		var handles []*core.Handle
		for i, arr := range trace {
			tb.Engine.Schedule(sim.Time(arr.AtS), func() {
				h, err := s.Submit(arr.Tenant, arr.Job, core.SubmitOptions{RelaxFloor: true})
				if err != nil {
					fmt.Fprintf(&log, "arrival %d (%s) refused: %v\n", i, arr.Tenant, err)
					return
				}
				handles = append(handles, h)
			})
		}
		tb.Engine.Run()
		for _, h := range handles {
			rep, err := json.Marshal(h.Report())
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&log, "job %d %s %v err=%v queue=%v\n%s\n", h.ID(), h.Tenant(), h.Status(), h.Err(), h.QueueDelayS(), rep)
			if r := h.Report(); r != nil {
				log.WriteString(r.Timeline(72))
			}
		}
		fmt.Fprintf(&log, "stats: %+v\n", s.Stats())
		return log.String(), s
	}

	off, _ := replay(nil)
	neutral := neutralSLO()
	on, s := replay(&neutral)
	if on != off {
		gl, wl := strings.SplitAfter(on, "\n"), strings.SplitAfter(off, "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs with neutral SLO tiers on\non:  %.400s\noff: %.400s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("neutral SLO tiers logged %d lines, without them %d", len(gl), len(wl))
	}
	admitted := 0
	for _, ts := range s.SLOTenants() {
		admitted += ts.Admitted
	}
	if st := s.Stats(); admitted != len(trace) || st.Completed != len(trace) {
		t.Fatalf("the SLO gate admitted %d of %d arrivals, %d completed", admitted, len(trace), st.Completed)
	}

	bound := neutralSLO()
	bound.QueueBound = 1
	shed, s := replay(&bound)
	if shed == off || s.Stats().SLOShed == 0 {
		t.Fatalf("a queue bound of 1 shed %d jobs and changed nothing: the trace never queues", s.Stats().SLOShed)
	}
}
