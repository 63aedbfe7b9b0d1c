package experiments

import (
	"strings"
	"testing"
)

func TestLoadSweepOperatingCurve(t *testing.T) {
	res, err := LoadSweep([]float64{0.01, 0.05}, 400, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	low, high := res.Points[0], res.Points[1]
	if low.Jobs == 0 || high.Jobs <= low.Jobs {
		t.Fatalf("trace sizes: low=%d high=%d", low.Jobs, high.Jobs)
	}
	if low.Completed != low.Jobs || high.Completed != high.Jobs {
		t.Fatalf("incomplete jobs: %+v / %+v", low, high)
	}
	// Queueing grows with offered load.
	if high.MeanQueueS < low.MeanQueueS {
		t.Fatalf("queue delay did not grow with load: %.1f vs %.1f",
			high.MeanQueueS, low.MeanQueueS)
	}
	if !strings.Contains(res.String(), "rate(job/s)") {
		t.Fatal("rendering broken")
	}
}

func TestQualityExperimentCheckpointsHelp(t *testing.T) {
	res, err := QualityExperiment(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want budgets 0..3", len(res.Rows))
	}
	if res.BaselineCorrectness >= 0.9 {
		t.Fatalf("baseline correctness %.3f suspiciously high (errors should cascade)",
			res.BaselineCorrectness)
	}
	// Monotone improvement with more checkpoints (Monte-Carlo; allow tiny
	// noise).
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Correctness < res.Rows[i-1].Correctness-0.02 {
			t.Fatalf("correctness fell from %.3f to %.3f adding checkpoint %d",
				res.Rows[i-1].Correctness, res.Rows[i].Correctness, i)
		}
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if last.Correctness <= first.Correctness+0.05 {
		t.Fatalf("checkpoints did not improve correctness: %.3f → %.3f",
			first.Correctness, last.Correctness)
	}
	if last.ValidatorCostS <= 0 {
		t.Fatal("validator cost not accounted")
	}
	// The top-impact stage is an early, error-cascading one (summarization
	// aggregates two inputs and feeds embeddings; STT/detection cascade too).
	if len(res.Impact) == 0 || res.Impact[0].Delta <= 0 {
		t.Fatalf("impact ranking empty or flat: %v", res.Impact)
	}
}

func TestMultiCloudPlacement(t *testing.T) {
	res, err := MultiCloud(DefaultCloudOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 3 options × 2 constraints", len(res.Rows))
	}
	byKey := map[string]MultiCloudRow{}
	for _, row := range res.Rows {
		byKey[row.Option+"/"+row.Constraint] = row
	}
	// H100 platform is faster under MIN_LATENCY. Its hourly rate is 2.5×
	// the A100's, but the shorter run can make the total bill comparable —
	// the §5 point that wider hardware variety changes the cost calculus
	// end-to-end, not per-hour.
	a100 := byKey["azure-a100/MIN_LATENCY"]
	h100 := byKey["premium-h100/MIN_LATENCY"]
	if h100.MakespanS >= a100.MakespanS {
		t.Errorf("H100 (%0.1fs) not faster than A100 (%0.1fs)", h100.MakespanS, a100.MakespanS)
	}
	// The mixed platform under MIN_LATENCY gives the H100s to the dominant
	// stage: the LLM engine lands on H100 (decided first in the greedy
	// hierarchy), while STT falls back to A100 hardware.
	mixed := byKey["multi-cloud/MIN_LATENCY"]
	if !strings.Contains(mixed.SummarizeConfig, "H100") {
		t.Errorf("multi-cloud MIN_LATENCY LLM engine = %s, want H100", mixed.SummarizeConfig)
	}
	// Under MIN_COST every platform still lands STT on CPUs.
	for _, opt := range []string{"azure-a100", "premium-h100", "multi-cloud"} {
		row := byKey[opt+"/MIN_COST"]
		if strings.Contains(row.STTConfig, "x") { // "NxGPU" configs contain 'x'
			t.Errorf("%s MIN_COST STT config = %s, want CPU-only", opt, row.STTConfig)
		}
	}
}

func TestRenderersProduceCompleteOutput(t *testing.T) {
	// The String()/CSV() renderers feed testdata/experiments.golden and the
	// CLI; make sure each carries its headline content.
	t1, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if out := t1.String(); !strings.Contains(out, "GPU Generation") ||
		!strings.Contains(out, "All directions match") {
		t.Errorf("table1 rendering incomplete:\n%s", out)
	}

	ov, err := Overhead()
	if err != nil {
		t.Fatal(err)
	}
	if out := ov.String(); !strings.Contains(out, "Profiling") ||
		!strings.Contains(out, "DAG creation") || !strings.Contains(out, "Configuration search") {
		t.Errorf("overhead rendering incomplete:\n%s", out)
	}

	mc, err := MultiCloud(DefaultCloudOptions()[:1])
	if err != nil {
		t.Fatal(err)
	}
	if out := mc.String(); !strings.Contains(out, "azure-a100") ||
		!strings.Contains(out, "LLM engine") {
		t.Errorf("multicloud rendering incomplete:\n%s", out)
	}

	q, err := QualityExperiment(1)
	if err != nil {
		t.Fatal(err)
	}
	if out := q.String(); !strings.Contains(out, "Highest-impact stages") {
		t.Errorf("quality rendering incomplete:\n%s", out)
	}

	mt, err := MultiTenant()
	if err != nil {
		t.Fatal(err)
	}
	if out := mt.String(); !strings.Contains(out, "Multiplexing gain") {
		t.Errorf("multitenant rendering incomplete:\n%s", out)
	}

	ra, err := RebalanceAblation()
	if err != nil {
		t.Fatal(err)
	}
	if out := ra.String(); !strings.Contains(out, "grow operations") {
		t.Errorf("rebalance rendering incomplete:\n%s", out)
	}
}

func TestFigure3CSVContainsAllRows(t *testing.T) {
	res, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	csv := res.CSV()
	for _, want := range []string{
		"# Baseline spans", "# Murakkab (GPU) spans",
		"# Murakkab (CPU) utilization", "time_s,cpu_util,gpu_util",
	} {
		if !strings.Contains(csv, want) {
			t.Errorf("figure3 CSV missing %q", want)
		}
	}
}
