package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workflow"
)

// within reports |got-want|/want ≤ frac.
func within(got, want, frac float64) bool {
	return math.Abs(got-want) <= frac*want
}

func TestFigure3ReproducesShape(t *testing.T) {
	res, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	// Every Murakkab config beats the baseline by a wide margin.
	base := res.Rows[0].Report.MakespanS
	for _, row := range res.Rows[1:] {
		if row.Report.MakespanS > base/2 {
			t.Errorf("%s makespan %.1f not < baseline/2 (%.1f)", row.Name, row.Report.MakespanS, base/2)
		}
	}
	// Headline speedup ~3.4×; accept ≥ 2.8×.
	if s := res.Speedup(); s < 2.8 {
		t.Fatalf("speedup = %.2f, want ≥ 2.8 (paper ~3.4)", s)
	}
	// Per-row times within 25% of the paper.
	for _, row := range res.Rows {
		if !within(row.Report.MakespanS, row.PaperTimeS, 0.25) {
			t.Errorf("%s: measured %.1fs vs paper %.0fs (>25%% off)",
				row.Name, row.Report.MakespanS, row.PaperTimeS)
		}
	}
	// The rendering includes all four panels.
	out := res.String()
	for _, want := range []string{"Baseline", "Murakkab (GPU)", "Murakkab (CPU)", "Murakkab (GPU+CPU)", "CPU util", "GPU util"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure rendering missing %q", want)
		}
	}
	if !strings.Contains(res.CSV(), "track,label,start_s,end_s") {
		t.Error("CSV export missing span header")
	}
}

func TestFigure3UtilizationContrast(t *testing.T) {
	res, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	base := res.Rows[0].Report
	// GPU-heavy configs drive GPUs harder than the baseline (the CPU config
	// legitimately idles GPUs while STT runs on cores — as in the paper's
	// bottom-left panel).
	for _, i := range []int{1, 3} { // GPU, GPU+CPU
		row := res.Rows[i]
		if row.Report.MeanGPUUtil <= base.MeanGPUUtil {
			t.Errorf("%s GPU util %.2f not above baseline %.2f",
				row.Name, row.Report.MeanGPUUtil, base.MeanGPUUtil)
		}
	}
	// The CPU config drives CPUs much harder than the baseline.
	cpuRow := res.Rows[2].Report
	if cpuRow.MeanCPUUtil < 5*base.MeanCPUUtil {
		t.Errorf("CPU-config CPU util %.3f not ≫ baseline %.3f", cpuRow.MeanCPUUtil, base.MeanCPUUtil)
	}
}

func TestTable2ReproducesShape(t *testing.T) {
	res, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table2Row{}
	for _, row := range res.Rows {
		byName[row.Config] = row
	}
	base := byName["Baseline"]
	cpu := byName["Murakkab CPU"]
	gpu := byName["Murakkab GPU"]
	hyb := byName["Murakkab GPU+CPU"]

	// Orderings the paper reports: CPU cheapest energy, GPU fastest,
	// hybrid between on energy and fastest-or-equal on time; baseline worst
	// on both.
	if !(cpu.EnergyWh < gpu.EnergyWh && cpu.EnergyWh < base.EnergyWh) {
		t.Errorf("CPU config not lowest energy: cpu=%.0f gpu=%.0f base=%.0f",
			cpu.EnergyWh, gpu.EnergyWh, base.EnergyWh)
	}
	if !(gpu.TimeS <= cpu.TimeS && gpu.TimeS < base.TimeS) {
		t.Errorf("GPU config not fastest: gpu=%.0f cpu=%.0f base=%.0f",
			gpu.TimeS, cpu.TimeS, base.TimeS)
	}
	if hyb.TimeS > cpu.TimeS {
		t.Errorf("hybrid (%.0fs) slower than CPU config (%.0fs)", hyb.TimeS, cpu.TimeS)
	}
	if base.EnergyWh < 3*cpu.EnergyWh {
		t.Errorf("energy efficiency gain = %.1f×, want ≥ 3 (paper ~4.5)", base.EnergyWh/cpu.EnergyWh)
	}
	// Absolute levels within 25% of the paper's cells.
	for _, row := range res.Rows {
		if !within(row.EnergyWh, row.PaperEnergyWh, 0.25) {
			t.Errorf("%s energy %.0f vs paper %.0f (>25%%)", row.Config, row.EnergyWh, row.PaperEnergyWh)
		}
		if !within(row.TimeS, row.PaperTimeS, 0.25) {
			t.Errorf("%s time %.0f vs paper %.0f (>25%%)", row.Config, row.TimeS, row.PaperTimeS)
		}
	}
	if !res.MinCostPickedCPU {
		t.Errorf("MIN_COST selected %s, paper selects the CPU config", res.MinCostSelection)
	}
}

func TestTable1AllDirectionsMatch(t *testing.T) {
	res, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 levers", len(res.Rows))
	}
	if bad := res.Check(); len(bad) > 0 {
		t.Fatalf("direction mismatches: %v", bad)
	}
}

func TestDirectionAndMatches(t *testing.T) {
	if Direction(1, 2) != "Higher" || Direction(2, 1) != "Lower" || Direction(1, 1) != "No Change" {
		t.Fatal("Direction broken")
	}
	if !Matches("Lower/No Change", "No Change") || Matches("Higher", "Lower") {
		t.Fatal("Matches broken")
	}
}

func TestOverheadClaims(t *testing.T) {
	res, err := Overhead()
	if err != nil {
		t.Fatal(err)
	}
	if res.PlanningLatencyFrac <= 0 || res.PlanningLatencyFrac >= 0.01 {
		t.Fatalf("planning overhead = %.3f%%, paper claims <1%%", 100*res.PlanningLatencyFrac)
	}
	if res.ProfilesBuilt == 0 || res.ProbeRuns != 2*res.ProfilesBuilt {
		t.Fatalf("profiling accounting: %d profiles, %d probes", res.ProfilesBuilt, res.ProbeRuns)
	}
	if res.DecisionsTaken >= res.CandidateConfigs {
		t.Fatal("configuration search did not prune anything")
	}
}

func TestMultiTenantMultiplexingGain(t *testing.T) {
	res, err := MultiTenant()
	if err != nil {
		t.Fatal(err)
	}
	if res.CoScheduledS >= res.SerialTotalS {
		t.Fatalf("co-scheduling (%.1fs) not faster than serial (%.1fs)",
			res.CoScheduledS, res.SerialTotalS)
	}
	if res.MultiplexGain < 1.2 {
		t.Fatalf("multiplex gain = %.2f, want ≥ 1.2", res.MultiplexGain)
	}
}

func TestRebalanceAblation(t *testing.T) {
	res, err := RebalanceAblation()
	if err != nil {
		t.Fatal(err)
	}
	if res.Grows == 0 {
		t.Fatal("rebalancer never grew the undersized engine")
	}
	if res.WithRebalanceS >= res.WithoutRebalanceS {
		t.Fatalf("rebalancing did not help: %.1fs vs %.1fs",
			res.WithRebalanceS, res.WithoutRebalanceS)
	}
}

func TestRunMurakkabFreeConstraints(t *testing.T) {
	// Sanity across all four constraints: all complete, and MIN_LATENCY is
	// the fastest of the four.
	times := map[workflow.Constraint]float64{}
	for _, c := range []workflow.Constraint{workflow.MinCost, workflow.MinLatency, workflow.MinPower, workflow.MaxQuality} {
		rep, _, err := RunMurakkabFree(core.Config{}, c)
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		times[c] = rep.MakespanS
	}
	for c, tm := range times {
		if times[workflow.MinLatency] > tm {
			t.Fatalf("MIN_LATENCY (%.1fs) slower than %s (%.1fs)",
				times[workflow.MinLatency], c, tm)
		}
	}
}
