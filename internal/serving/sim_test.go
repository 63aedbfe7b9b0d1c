package serving

import (
	"reflect"
	"testing"
)

// TestScenariosDeterministic replays each sim-time scenario twice and demands
// bit-identical comparisons — every counter, every goodput split, which jobs
// shed and which admits degraded. Trace generation, injection, backoff
// jitter, breaker transitions and the overload controller's decisions all run
// on seeded streams in simulated time, so any drift is a determinism
// regression.
func TestScenariosDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func() (any, error)
	}{
		{"faults", func() (any, error) { return RunFaults() }},
		{"reconfig", func() (any, error) { return RunReconfig() }},
		{"overload", func() (any, error) { return RunOverload(DefaultOverloadX) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := tc.run()
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			b, err := tc.run()
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("replay not deterministic for fixed seeds:\nfirst:\n%+v\nsecond:\n%+v", a, b)
			}
		})
	}
}
