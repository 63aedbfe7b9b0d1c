package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/telemetry"
)

// Figure3Row is one of the four execution traces in Figure 3.
type Figure3Row struct {
	Name string
	// PaperTimeS is the completion time the paper reports for this trace.
	PaperTimeS float64
	Report     *report.Report
}

// Figure3Result reproduces Figure 3: the baseline and Murakkab execution
// traces plus their CPU/GPU utilization time series.
type Figure3Result struct {
	Rows []Figure3Row
}

// Figure3 runs the four §4 configurations.
func Figure3() (*Figure3Result, error) { return Figure3With(core.Config{}) }

// Figure3With is Figure3 with every Murakkab testbed's runtime built from cfg.
func Figure3With(cfg core.Config) (*Figure3Result, error) {
	base, err := RunBaseline()
	if err != nil {
		return nil, fmt.Errorf("figure3 baseline: %w", err)
	}
	res := &Figure3Result{
		Rows: []Figure3Row{{Name: "Baseline", PaperTimeS: 283, Report: base}},
	}
	for _, row := range []struct {
		stt   STTConfig
		paper float64
	}{
		{STTGPU, 77},
		{STTCPU, 83},
		{STTHybrid, 77},
	} {
		rep, _, err := RunMurakkabSTT(cfg, row.stt)
		if err != nil {
			return nil, fmt.Errorf("figure3 %s: %w", row.stt, err)
		}
		res.Rows = append(res.Rows, Figure3Row{
			Name:       fmt.Sprintf("Murakkab (%s)", row.stt),
			PaperTimeS: row.paper,
			Report:     rep,
		})
	}
	return res, nil
}

// Speedup returns the baseline-to-best-Murakkab speedup (the paper's ~3.4×).
func (r *Figure3Result) Speedup() float64 {
	base := r.Rows[0].Report.MakespanS
	best := base
	for _, row := range r.Rows[1:] {
		if row.Report.MakespanS < best {
			best = row.Report.MakespanS
		}
	}
	return base / best
}

// String renders the figure as ASCII: per-row Gantt timelines plus CPU/GPU
// utilization sparklines over a shared time axis.
func (r *Figure3Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 3: Execution traces of the Video Understanding workflow\n")
	fmt.Fprintf(&b, "(speedup over baseline: %.1fx; paper reports ~3.4x)\n\n", r.Speedup())
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "[%s]  measured %.0fs, paper %.0fs\n",
			row.Name, row.Report.MakespanS, row.PaperTimeS)
		b.WriteString(row.Report.Timeline(72))
		cpu := row.Report.CPUUtil().Resample(0, row.Report.MakespanS, row.Report.MakespanS/60)
		gpu := row.Report.GPUUtil().Resample(0, row.Report.MakespanS, row.Report.MakespanS/60)
		fmt.Fprintf(&b, "CPU util %% |%s| mean %.0f%%\n", telemetry.Sparkline(cpu, 1), 100*row.Report.MeanCPUUtil)
		fmt.Fprintf(&b, "GPU util %% |%s| mean %.0f%%\n\n", telemetry.Sparkline(gpu, 1), 100*row.Report.MeanGPUUtil)
	}
	return b.String()
}

// CSV renders all four traces' spans and utilization series for plotting.
func (r *Figure3Result) CSV() string {
	var b strings.Builder
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "# %s spans\n", row.Name)
		b.WriteString(telemetry.SpansCSV(row.Report.Tracer))
		fmt.Fprintf(&b, "# %s utilization\n", row.Name)
		b.WriteString(row.Report.UtilizationCSV(1))
	}
	return b.String()
}
