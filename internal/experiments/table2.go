package experiments

import (
	"fmt"
	"strings"

	"repro/internal/agents"
	"repro/internal/core"
	"repro/internal/workflow"
)

// Table2Row is one row of Table 2: energy and execution time for one
// Speech-to-Text configuration.
type Table2Row struct {
	Config        string
	PaperEnergyWh float64
	PaperTimeS    float64
	EnergyWh      float64
	TimeS         float64
}

// Table2Result reproduces Table 2 plus the MIN_COST selection check.
type Table2Result struct {
	Rows []Table2Row
	// MinCostSelection is the STT config the optimizer picked under
	// MIN_COST (the paper: the CPU configuration).
	MinCostSelection string
	// MinCostPickedCPU reports whether that selection was CPU-only.
	MinCostPickedCPU bool
	// EnergyEfficiencyGain is baseline energy / chosen-config energy (the
	// paper's ~4.5×).
	EnergyEfficiencyGain float64
}

// Table2 runs the baseline and the three Murakkab STT configurations and
// records GPU energy and completion time for each, then verifies the
// optimizer's free choice under MIN_COST.
func Table2() (*Table2Result, error) { return Table2With(core.Config{}) }

// Table2With is Table2 with every Murakkab testbed's runtime built from cfg.
func Table2With(cfg core.Config) (*Table2Result, error) {
	base, err := RunBaseline()
	if err != nil {
		return nil, err
	}
	res := &Table2Result{Rows: []Table2Row{{
		Config:        "Baseline",
		PaperEnergyWh: 155, PaperTimeS: 285,
		EnergyWh: base.GPUEnergyWh, TimeS: base.MakespanS,
	}}}
	for _, row := range []struct {
		stt    STTConfig
		energy float64
		time   float64
	}{
		{STTCPU, 34, 83},
		{STTGPU, 43, 77},
		{STTHybrid, 42, 77},
	} {
		rep, _, err := RunMurakkabSTT(cfg, row.stt)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Table2Row{
			Config:        "Murakkab " + string(row.stt),
			PaperEnergyWh: row.energy, PaperTimeS: row.time,
			EnergyWh: rep.GPUEnergyWh, TimeS: rep.MakespanS,
		})
	}

	// Free optimizer choice under MIN_COST.
	_, ex, err := RunMurakkabFree(cfg, workflow.MinCost)
	if err != nil {
		return nil, err
	}
	stt := ex.Plan().Decisions[string(agents.CapSpeechToText)]
	res.MinCostSelection = stt.Config.String()
	res.MinCostPickedCPU = stt.Config.GPUs == 0 && stt.Config.CPUCores > 0

	var chosenEnergy float64
	for _, row := range res.Rows {
		if row.Config == "Murakkab CPU" {
			chosenEnergy = row.EnergyWh
		}
	}
	if chosenEnergy > 0 {
		res.EnergyEfficiencyGain = res.Rows[0].EnergyWh / chosenEnergy
	}
	return res, nil
}

// String renders the table with paper-vs-measured columns.
func (r *Table2Result) String() string {
	var b strings.Builder
	b.WriteString("Table 2: Energy and execution time of each configuration\n")
	fmt.Fprintf(&b, "%-22s %14s %14s %12s %12s\n",
		"Speech-to-Text Config", "Energy(Wh)", "paper(Wh)", "Time(s)", "paper(s)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-22s %14.0f %14.0f %12.0f %12.0f\n",
			row.Config, row.EnergyWh, row.PaperEnergyWh, row.TimeS, row.PaperTimeS)
	}
	fmt.Fprintf(&b, "\nMIN_COST selection: %s (CPU-only: %v; paper selects the CPU config)\n",
		r.MinCostSelection, r.MinCostPickedCPU)
	fmt.Fprintf(&b, "Energy-efficiency gain vs baseline: %.1fx (paper: ~4.5x)\n",
		r.EnergyEfficiencyGain)
	return b.String()
}
