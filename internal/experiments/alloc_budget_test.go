package experiments

import (
	"runtime"
	"testing"
)

// TestLoadSweepAllocBudget holds one moderate-load sweep point to its warm
// heap allocation count plus 3 % in objects and 5 % in bytes. A warm-up run
// first memoizes the shared profiles, so the measured run is the sweep's
// own work whatever ran before it in the binary.
func TestLoadSweepAllocBudget(t *testing.T) {
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("the race detector changes what escapes; coverage counters allocate")
	}
	const maxAllocs, maxBytes = 641 * 103 / 100, 165_600 * 105 / 100 // warm counts + 3 % / + 5 %
	sweep := func() {
		if _, err := LoadSweep([]float64{0.02}, 400, 11); err != nil {
			t.Fatal(err)
		}
	}
	sweep()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sweep()
	runtime.ReadMemStats(&after)
	allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("%d allocs (budget %d), %d B (budget %d)", allocs, maxAllocs, bytes, maxBytes)
	if allocs > maxAllocs {
		t.Errorf("%d allocs, budget %d", allocs, maxAllocs)
	}
	if bytes > maxBytes {
		t.Errorf("%d B, budget %d", bytes, maxBytes)
	}
}
