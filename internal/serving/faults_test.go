package serving

import "testing"

// TestRunFaultsRecoveryGain is the chaos harness's contract: under the
// default fault trace the recovery-on arm completes at least 1.3x the jobs
// of the recovery-off arm inside the same simulated horizon, recovery
// actually retries (the gain is not a fluke of the trace missing), and
// neither arm strands a job (RunFaults errors on any non-terminal handle
// after the drain).
func TestRunFaultsRecoveryGain(t *testing.T) {
	cmp, err := RunFaults()
	if err != nil {
		t.Fatal(err)
	}
	if cmp.GoodputGainX < 1.3 {
		t.Fatalf("recovery goodput gain %.3fx below 1.3x\n%+v", cmp.GoodputGainX, cmp)
	}
	if cmp.On.Goodput <= cmp.Off.Goodput {
		t.Fatalf("recovery-on goodput %d not above recovery-off %d", cmp.On.Goodput, cmp.Off.Goodput)
	}
	if cmp.On.TaskRetries == 0 {
		t.Fatal("recovery-on arm never retried: the fault trace is not exercising recovery")
	}
	if cmp.Off.TaskRetries != 0 {
		t.Fatalf("recovery-off arm reported %d retries; recovery must be inert when disabled", cmp.Off.TaskRetries)
	}
	if cmp.Off.FaultsInjected == 0 || cmp.On.FaultsInjected == 0 {
		t.Fatalf("faults not injected (off=%d on=%d)", cmp.Off.FaultsInjected, cmp.On.FaultsInjected)
	}
	if cmp.Off.Stranded != 0 || cmp.On.Stranded != 0 {
		t.Fatalf("stranded jobs (off=%d on=%d)", cmp.Off.Stranded, cmp.On.Stranded)
	}
}
