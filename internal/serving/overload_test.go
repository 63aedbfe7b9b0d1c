package serving

import "testing"

// TestOverloadTieredBeatsFIFO is the overload harness's contract at the
// default 4× burst: tiered admission sheds and degrades its way to materially
// more within-target goodput than unbounded FIFO, while the admission queue
// stays under the summed per-tenant bounds and nothing strands. These are the
// same properties BenchmarkOverload gates in CI.
func TestOverloadTieredBeatsFIFO(t *testing.T) {
	cmp, err := RunOverload(DefaultOverloadX)
	if err != nil {
		t.Fatalf("RunOverload: %v", err)
	}
	t.Logf("%+v", cmp)
	if cmp.GoodputGainX < 1.2 {
		t.Errorf("tiered goodput gain %.3fx, want >= 1.2x", cmp.GoodputGainX)
	}
	if cmp.Tiered.Shed == 0 {
		t.Error("tiered arm shed nothing at 4x overload; queue bounds are not binding")
	}
	if cmp.Tiered.DegradedAdmits == 0 {
		t.Error("tiered arm degraded nothing; admission-time degradation never engaged")
	}
	if cmp.Tiered.OverloadEnters == 0 {
		t.Error("overload controller never engaged at 4x offered load")
	}
	if cmp.FIFO.Shed != 0 || cmp.FIFO.DegradedAdmits != 0 {
		t.Errorf("FIFO arm shed %d / degraded %d; the baseline must be plain admission",
			cmp.FIFO.Shed, cmp.FIFO.DegradedAdmits)
	}
	if cmp.QueueBoundTotal <= 0 {
		t.Fatal("no per-tenant queue bounds resolved for the trace")
	}
	if cmp.Tiered.PeakQueueDepth > cmp.QueueBoundTotal {
		t.Errorf("tiered peak queue depth %d exceeds summed bound %d",
			cmp.Tiered.PeakQueueDepth, cmp.QueueBoundTotal)
	}
	if cmp.Tiered.PeakQueueDepth >= cmp.FIFO.PeakQueueDepth {
		t.Errorf("tiered peak queue %d not below FIFO's %d; bounds changed nothing",
			cmp.Tiered.PeakQueueDepth, cmp.FIFO.PeakQueueDepth)
	}
	if cmp.FIFO.Stranded != 0 || cmp.Tiered.Stranded != 0 {
		t.Errorf("stranded jobs: fifo %d tiered %d, want zero",
			cmp.FIFO.Stranded, cmp.Tiered.Stranded)
	}
	for _, arm := range []OverloadArm{cmp.FIFO, cmp.Tiered} {
		if got := arm.Admitted + arm.Shed + arm.BudgetRejected; got != arm.Jobs {
			t.Errorf("%s: admitted %d + shed %d + budget-rejected %d != %d jobs (a submission fell through)",
				arm.Mode, arm.Admitted, arm.Shed, arm.BudgetRejected, arm.Jobs)
		}
		if got := arm.Completed + arm.Failed; got != arm.Admitted {
			t.Errorf("%s: completed %d + failed %d != admitted %d",
				arm.Mode, arm.Completed, arm.Failed, arm.Admitted)
		}
	}
}

// TestOverloadMultiplierBounds pins the documented 2–10× envelope.
func TestOverloadMultiplierBounds(t *testing.T) {
	for _, x := range []float64{1, 1.5, 11, 100} {
		if _, err := RunOverload(x); err == nil {
			t.Errorf("OverloadX=%.1f: want error outside [2, 10], got nil", x)
		}
	}
}
