package core_test

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
)

// TestAllocReuseDifferential is the bit-identical contract behind the
// runtime's allocation-reuse fast paths (key interning, the worker and
// LLM-task scratch pools, recycled LLM requests and execution blocks): the
// paper's seeded workloads run with every fast path off and again with them
// on, and the full result structures — per-job reports, traces, and the
// paper's headline metrics — must serialize to the same bytes. Reuse is
// allowed to change where memory comes from, never what the simulation
// computes.
func TestAllocReuseDifferential(t *testing.T) {
	runAll := func(reuse bool) map[string]string {
		var cfg core.Config
		cfg.SetNoReuse(!reuse)
		out := map[string]string{}
		record := func(name string, v any, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatalf("%s: marshal: %v", name, err)
			}
			out[name] = string(b)
		}
		f3, err := experiments.Figure3With(cfg)
		record("figure3", f3, err)
		out["speedup_x"] = fmt.Sprintf("%.3f", f3.Speedup())
		t2, err := experiments.Table2With(cfg)
		record("table2", t2, err)
		out["energy_gain_x"] = fmt.Sprintf("%.3f", t2.EnergyEfficiencyGain)
		t1, err := experiments.Table1()
		record("table1", t1, err)
		out["mismatches"] = fmt.Sprintf("%d", len(t1.Check()))
		mt, err := experiments.MultiTenantWith(cfg)
		record("multitenant", mt, err)
		out["multiplex_gain_x"] = fmt.Sprintf("%.3f", mt.MultiplexGain)
		return out
	}

	reference := runAll(false)
	reused := runAll(true)
	for name, want := range reference {
		if got := reused[name]; got != want {
			t.Errorf("%s diverged with allocation reuse enabled:\n  disabled: %.400s\n  enabled:  %.400s", name, want, got)
		}
	}

	// The headline paper metrics are deterministic simulated-time outputs;
	// pin them so a regression that shifts both arms alike still trips.
	for name, want := range map[string]string{
		"speedup_x":        "4.516",
		"energy_gain_x":    "3.469",
		"mismatches":       "0",
		"multiplex_gain_x": "1.629",
	} {
		if got := reused[name]; got != want {
			t.Errorf("%s = %s, want %s", name, got, want)
		}
	}
}
