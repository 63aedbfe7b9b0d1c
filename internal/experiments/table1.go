package experiments

import (
	"fmt"
	"strings"

	"repro/internal/agents"
	"repro/internal/hardware"
	"repro/internal/profiles"
)

// Table1Row is one optimization lever with its measured impact. Metrics
// follow the paper's columns: $ Cost (here: hourly price of the resources
// the stage commits), Power (sustained stage watts), Latency (stage
// seconds) and Quality.
type Table1Row struct {
	Parameter string
	Category  string
	Selection string

	// Before/after metric values for the lever flip.
	CostBefore, CostAfter       float64
	PowerBefore, PowerAfter     float64
	LatencyBefore, LatencyAfter float64
	QualityBefore, QualityAfter float64

	// Expected directions from the paper's Table 1 ("Higher", "Lower",
	// "No Change", or slash-combined like "Lower/No Change").
	WantCost, WantPower, WantLatency, WantQuality string
}

// Direction classifies an after-vs-before change.
func Direction(before, after float64) string {
	const eps = 1e-9
	switch {
	case after > before+eps:
		return "Higher"
	case after < before-eps:
		return "Lower"
	default:
		return "No Change"
	}
}

// Matches reports whether a measured direction satisfies a paper cell
// (which may list alternatives, e.g. "Lower/No Change").
func Matches(want, got string) bool {
	for _, alt := range strings.Split(want, "/") {
		if strings.EqualFold(strings.TrimSpace(alt), got) {
			return true
		}
	}
	return false
}

// Table1Result reproduces Table 1 as measured ablations.
type Table1Result struct {
	Rows []Table1Row
}

// stageMetrics evaluates one (implementation, config, parallelism, paths)
// choice on the Figure 3 STT/summarization workload shapes, mirroring the
// optimizer's scoring but surfacing the raw metrics.
type stageMetrics struct {
	cost, power, latency, quality float64
}

func measure(store *profiles.Store, cat *hardware.Catalog, impl string,
	cfg profiles.ResourceConfig, tasks int, avgWork float64, k, paths int) (stageMetrics, error) {
	prof, ok := store.Get(impl, cfg)
	if !ok {
		return stageMetrics{}, fmt.Errorf("experiments: no profile for %s @ %v", impl, cfg)
	}
	perTask := prof.LatencyS(avgWork)
	waves := float64((tasks + k - 1) / k)
	latency := waves * perTask
	if paths > 1 {
		latency *= 1.05
	}
	quality := prof.Quality
	if paths > 1 {
		quality = 1 - pow(1-quality, paths)
	}
	return stageMetrics{
		cost:    cfg.HourlyUSD(cat, hardware.EPYC7V12) * float64(k) * float64(paths),
		power:   prof.PowerW(cat, hardware.EPYC7V12) * float64(k) * float64(paths),
		latency: latency,
		quality: quality,
	}, nil
}

func pow(x float64, n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= x
	}
	return out
}

// Table1 measures the five levers on the Figure 3 workload shapes (16
// scenes; STT work 30 audio-seconds per scene, summarization 680 token-work
// per scene).
func Table1() (*Table1Result, error) {
	cat := hardware.DefaultCatalog()
	lib := agents.DefaultLibrary()
	store, err := agents.NewProfiler(cat).ProfileLibrary(lib)
	if err != nil {
		return nil, err
	}
	const scenes = 16
	a100 := profiles.ResourceConfig{GPUs: 1, GPUType: hardware.GPUA100}
	h100 := profiles.ResourceConfig{GPUs: 1, GPUType: hardware.GPUH100}
	cpu4 := profiles.ResourceConfig{CPUCores: 4}
	res := &Table1Result{}

	add := func(param, category, selection string, before, after stageMetrics,
		wantCost, wantPower, wantLatency, wantQuality string) {
		res.Rows = append(res.Rows, Table1Row{
			Parameter: param, Category: category, Selection: selection,
			CostBefore: before.cost, CostAfter: after.cost,
			PowerBefore: before.power, PowerAfter: after.power,
			LatencyBefore: before.latency, LatencyAfter: after.latency,
			QualityBefore: before.quality, QualityAfter: after.quality,
			WantCost: wantCost, WantPower: wantPower,
			WantLatency: wantLatency, WantQuality: wantQuality,
		})
	}

	// 1. GPU Generation: whisper STT on A100 → H100.
	before, err := measure(store, cat, agents.ImplWhisper, a100, scenes, 30, 1, 1)
	if err != nil {
		return nil, err
	}
	after, err := measure(store, cat, agents.ImplWhisper, h100, scenes, 30, 1, 1)
	if err != nil {
		return nil, err
	}
	add("GPU Generation", "Hardware Type", "Newer", before, after,
		"Higher", "Higher", "Lower/No Change", "No Change")

	// 2. CPU vs GPU: whisper on 1×A100 → 64 cores (as 16×4c workers). The
	// arXiv rendering of this row's latency cell reads "Lower", which
	// contradicts Table 2 (CPU config is slower, 83 s vs 77 s); we assert
	// the Table-2-consistent direction and note the discrepancy in the
	// rendered table (testdata/experiments.golden).
	before, err = measure(store, cat, agents.ImplWhisper, a100, scenes, 30, 1, 1)
	if err != nil {
		return nil, err
	}
	after, err = measure(store, cat, agents.ImplWhisper, cpu4, scenes, 30, 16, 1)
	if err != nil {
		return nil, err
	}
	add("CPU vs GPU", "Hardware Type", "CPU", before, after,
		"Lower", "Lower", "Higher", "No Change")

	// 3. Task Parallelism: whisper on 4-core workers, fan-out 1 → 16.
	before, err = measure(store, cat, agents.ImplWhisper, cpu4, scenes, 30, 1, 1)
	if err != nil {
		return nil, err
	}
	after, err = measure(store, cat, agents.ImplWhisper, cpu4, scenes, 30, 16, 1)
	if err != nil {
		return nil, err
	}
	add("Task Parallelism", "Resource Amount", "More Fan Out", before, after,
		"Higher", "Higher", "Lower", "No Change")

	// 4. Execution Paths: NVLM summarization, 1 → 4 reasoning paths.
	sumCfg := profiles.ResourceConfig{GPUs: 8, GPUType: hardware.GPUA100}
	before, err = measure(store, cat, agents.ImplNVLM, sumCfg, scenes, 680, scenes, 1)
	if err != nil {
		return nil, err
	}
	after, err = measure(store, cat, agents.ImplNVLM, sumCfg, scenes, 680, scenes, 4)
	if err != nil {
		return nil, err
	}
	add("Execution Paths", "Resource Amount", "More Paths", before, after,
		"Higher", "Higher", "Higher/No Change", "Higher/No Change")

	// 5. Model/Tool: summarization via llama-8b (1 GPU) → nvlm-72b (4 GPUs,
	// its minimum footprint).
	before, err = measure(store, cat, agents.ImplLlama8B, a100, scenes, 680, 1, 1)
	if err != nil {
		return nil, err
	}
	after, err = measure(store, cat, agents.ImplNVLM,
		profiles.ResourceConfig{GPUs: 4, GPUType: hardware.GPUA100}, scenes, 680, 1, 1)
	if err != nil {
		return nil, err
	}
	add("Model/Tool", "Agent Implementation", "More Parameters", before, after,
		"Higher", "Higher", "Higher", "Higher/No Change")

	return res, nil
}

// Check verifies every measured direction against the paper's cell,
// returning a list of mismatches (empty = full reproduction).
func (r *Table1Result) Check() []string {
	var bad []string
	for _, row := range r.Rows {
		checks := []struct {
			metric string
			want   string
			got    string
		}{
			{"cost", row.WantCost, Direction(row.CostBefore, row.CostAfter)},
			{"power", row.WantPower, Direction(row.PowerBefore, row.PowerAfter)},
			{"latency", row.WantLatency, Direction(row.LatencyBefore, row.LatencyAfter)},
			{"quality", row.WantQuality, Direction(row.QualityBefore, row.QualityAfter)},
		}
		for _, c := range checks {
			if !Matches(c.want, c.got) {
				bad = append(bad, fmt.Sprintf("%s/%s: want %s, measured %s",
					row.Parameter, c.metric, c.want, c.got))
			}
		}
	}
	return bad
}

// String renders the table with measured directions.
func (r *Table1Result) String() string {
	var b strings.Builder
	b.WriteString("Table 1: Optimization parameters and their impact (measured)\n")
	fmt.Fprintf(&b, "%-18s %-22s %-16s %-10s %-10s %-10s %-10s\n",
		"Parameter", "Category", "Selection", "$ Cost", "Power", "Latency", "Quality")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-18s %-22s %-16s %-10s %-10s %-10s %-10s\n",
			row.Parameter, row.Category, row.Selection,
			Direction(row.CostBefore, row.CostAfter),
			Direction(row.PowerBefore, row.PowerAfter),
			Direction(row.LatencyBefore, row.LatencyAfter),
			Direction(row.QualityBefore, row.QualityAfter))
	}
	if bad := r.Check(); len(bad) > 0 {
		b.WriteString("\nMISMATCHES vs paper:\n")
		for _, m := range bad {
			b.WriteString("  " + m + "\n")
		}
	} else {
		b.WriteString("\nAll directions match the paper's Table 1 (with the CPU-latency cell\nread consistently with Table 2; see EXPERIMENTS.md).\n")
	}
	return b.String()
}
