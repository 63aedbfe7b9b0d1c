package experiments

import (
	"fmt"
	"strings"

	"repro/internal/agents"
	"repro/internal/core"
	"repro/internal/optimizer"
	"repro/internal/sim"
	"repro/internal/workflow"
)

// NewsfeedJob is Figure 2's Workflow B: "Generate social media newsfeed for
// Alice".
func NewsfeedJob() workflow.Job {
	return workflow.Job{
		Description: "Generate social media newsfeed for Alice",
		Inputs: []workflow.Input{
			{Name: "alice", Kind: workflow.InputUser},
			{Name: "formula-1", Kind: workflow.InputTopic, Attrs: map[string]float64{"queries": 3}},
			{Name: "cats", Kind: workflow.InputTopic, Attrs: map[string]float64{"queries": 3}},
			{Name: "cooking", Kind: workflow.InputTopic, Attrs: map[string]float64{"queries": 3}},
		},
		Constraint: workflow.MinLatency,
	}
}

// MultiTenantResult compares serial execution of independent workflows
// (each getting the cluster to itself in turn) against Murakkab
// co-scheduling them — the Figure 2 "higher resource multiplexing between
// independent workflows" claim. The mix is two Video Understanding jobs
// (Workflow A for two tenants) plus the newsfeed (Workflow B).
type MultiTenantResult struct {
	VideoAloneS    float64
	NewsfeedAloneS float64
	// SerialTotalS is 2×video + newsfeed run back to back.
	SerialTotalS float64
	// CoScheduledS is the makespan with all three submitted together.
	CoScheduledS float64
	// MultiplexGain = SerialTotalS / CoScheduledS.
	MultiplexGain float64
	// CoScheduledEnergyWh is total GPU energy of the shared run.
	CoScheduledEnergyWh float64
}

// MultiTenant runs the comparison.
func MultiTenant() (*MultiTenantResult, error) { return MultiTenantWith(core.Config{}) }

// MultiTenantWith is MultiTenant with every testbed's runtime built from cfg.
func MultiTenantWith(cfg core.Config) (*MultiTenantResult, error) {
	res := &MultiTenantResult{}

	// Each workflow alone.
	repV, _, err := RunMurakkabFree(cfg, workflow.MinCost)
	if err != nil {
		return nil, err
	}
	res.VideoAloneS = repV.MakespanS

	tbN, err := NewTestbed(cfg)
	if err != nil {
		return nil, err
	}
	exN, err := tbN.Runtime.Submit(NewsfeedJob(), core.SubmitOptions{RelaxFloor: true})
	if err != nil {
		return nil, err
	}
	tbN.Engine.Run()
	if exN.Err() != nil {
		return nil, exN.Err()
	}
	res.NewsfeedAloneS = exN.Report().MakespanS
	res.SerialTotalS = 2*res.VideoAloneS + res.NewsfeedAloneS

	// Co-scheduled on one testbed, sharing the NVLM engines.
	tb, err := NewTestbed(cfg)
	if err != nil {
		return nil, err
	}
	sumPin := PaperEnginePins()[string(agents.CapSummarization)]
	var exs []*core.Execution
	for i := 0; i < 2; i++ {
		ex, err := tb.Runtime.Submit(PaperVideoJob(workflow.MinCost), core.SubmitOptions{
			Pinned: PaperEnginePins(), RelaxFloor: true, KeepEngines: true,
		})
		if err != nil {
			return nil, err
		}
		exs = append(exs, ex)
	}
	exB, err := tb.Runtime.Submit(NewsfeedJob(), core.SubmitOptions{
		Pinned:     map[string]optimizer.Pin{string(agents.CapSummarization): sumPin},
		RelaxFloor: true, KeepEngines: true,
	})
	if err != nil {
		return nil, err
	}
	exs = append(exs, exB)
	tb.Engine.Run()
	for _, ex := range exs {
		if ex.Err() != nil {
			return nil, fmt.Errorf("multitenant: %w", ex.Err())
		}
		if ex.Report().MakespanS > res.CoScheduledS {
			res.CoScheduledS = ex.Report().MakespanS
		}
	}
	res.CoScheduledEnergyWh = exs[0].Report().GPUEnergyWh // shared-cluster window
	if res.CoScheduledS > 0 {
		res.MultiplexGain = res.SerialTotalS / res.CoScheduledS
	}
	return res, nil
}

// String renders the comparison.
func (r *MultiTenantResult) String() string {
	var b strings.Builder
	b.WriteString("Multi-tenant multiplexing (2× Workflow A + Workflow B from Figure 2)\n")
	fmt.Fprintf(&b, "Video Understanding alone: %.1f s\n", r.VideoAloneS)
	fmt.Fprintf(&b, "Newsfeed alone:            %.1f s\n", r.NewsfeedAloneS)
	fmt.Fprintf(&b, "Serial (dedicated):        %.1f s\n", r.SerialTotalS)
	fmt.Fprintf(&b, "Co-scheduled (shared):     %.1f s\n", r.CoScheduledS)
	fmt.Fprintf(&b, "Multiplexing gain:         %.2fx\n", r.MultiplexGain)
	return b.String()
}

// RebalanceAblationResult quantifies the value of workflow-aware cluster
// management: the same job with the NVLM engine starting at its 4-GPU
// minimum, with and without the manager's rebalancing loop.
type RebalanceAblationResult struct {
	WithoutRebalanceS    float64
	WithRebalanceS       float64
	Grows                int
	SpeedupFromLookahead float64
}

// RebalanceAblation runs the comparison.
func RebalanceAblation() (*RebalanceAblationResult, error) {
	run := func(period sim.Duration) (float64, int, error) {
		tb, err := NewTestbed(core.Config{RebalancePeriod: period})
		if err != nil {
			return 0, 0, err
		}
		pins := PaperEnginePins()
		// Undersized engine allowed to scale: the rebalancer can grow it
		// when the summarization burst queues.
		sum := pins[string(agents.CapSummarization)]
		sum.Config.GPUs = 4
		sum.AllowScaling = true
		pins[string(agents.CapSummarization)] = sum
		pins[string(agents.CapSpeechToText)] = STTPin(STTCPU)
		ex, err := tb.Runtime.Submit(PaperVideoJob(workflow.MinCost), core.SubmitOptions{
			Pinned: pins, RelaxFloor: true,
		})
		if err != nil {
			return 0, 0, err
		}
		tb.Engine.Run()
		if ex.Err() != nil {
			return 0, 0, ex.Err()
		}
		grows, _ := tb.Runtime.Manager().Rebalances()
		return ex.Report().MakespanS, grows, nil
	}
	res := &RebalanceAblationResult{}
	var err error
	if res.WithoutRebalanceS, _, err = run(0); err != nil {
		return nil, err
	}
	if res.WithRebalanceS, res.Grows, err = run(2); err != nil {
		return nil, err
	}
	if res.WithRebalanceS > 0 {
		res.SpeedupFromLookahead = res.WithoutRebalanceS / res.WithRebalanceS
	}
	return res, nil
}

// String renders the ablation.
func (r *RebalanceAblationResult) String() string {
	var b strings.Builder
	b.WriteString("Workflow-aware rebalancing ablation (undersized 4-GPU NVLM engine)\n")
	fmt.Fprintf(&b, "Without rebalancing: %.1f s\n", r.WithoutRebalanceS)
	fmt.Fprintf(&b, "With rebalancing:    %.1f s (%d grow operations)\n", r.WithRebalanceS, r.Grows)
	fmt.Fprintf(&b, "Speedup from DAG-aware scaling: %.2fx\n", r.SpeedupFromLookahead)
	return b.String()
}
