package serving

import (
	"runtime"
	"testing"
)

// heapDelta runs fn once and returns the heap objects and bytes allocated
// while it ran.
func heapDelta(fn func() error) (allocs, bytes uint64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, err
}

// TestScenarioAllocBudget holds each scenario runner's heap allocations to
// its warm count plus 3 % in objects and 5 % in bytes. Counts, not time, so
// they mean the same on any host. A warm-up run first memoizes the shared
// profiles, so the measured run is the runner's own work whatever ran
// before it in the binary. GOMAXPROCS is pinned to 2 because the serving
// pool sizes its shards and plan workers from it.
func TestScenarioAllocBudget(t *testing.T) {
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("the race detector changes what escapes; coverage counters allocate")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, tc := range []struct {
		name string
		run  func() error
		// warmAllocs / warmBytes are the highest counts measured.
		warmAllocs, warmBytes uint64
	}{
		{"serving", func() error { _, err := Run(DefaultOptions()); return err }, 221_505, 44_300_000},
		{"cluster", func() error { _, err := RunCluster(DefaultClusterOptions()); return err }, 26_361, 6_250_000},
		{"reconfig", func() error { _, err := RunReconfig(); return err }, 5_084, 1_907_000},
		{"faults", func() error { _, err := RunFaults(); return err }, 6_509, 2_680_000},
		{"overload", func() error { _, err := RunOverload(DefaultOverloadX); return err }, 4_197, 1_625_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
			allocs, bytes, err := heapDelta(tc.run)
			if err != nil {
				t.Fatal(err)
			}
			maxAllocs, maxBytes := tc.warmAllocs*103/100, tc.warmBytes*105/100
			t.Logf("%d allocs (budget %d), %d B (budget %d)", allocs, maxAllocs, bytes, maxBytes)
			if allocs > maxAllocs {
				t.Errorf("%d allocs, budget %d", allocs, maxAllocs)
			}
			if bytes > maxBytes {
				t.Errorf("%d B, budget %d", bytes, maxBytes)
			}
		})
	}
}
