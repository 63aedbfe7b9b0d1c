package experiments

import (
	"fmt"
	"strings"

	"repro/internal/agents"
	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/workflow"
)

// OverheadResult quantifies the §3.3 overheads: (a) profiling, amortized
// over workflows; (b) DAG creation (< 1% of execution); (c) configuration
// search size after greedy pruning.
type OverheadResult struct {
	// Profiling.
	ProfilesBuilt int
	ProbeRuns     int

	// DAG creation (planning).
	PlanningTokensPrompt int
	PlanningTokensOutput int
	PlanningLatencyFrac  float64

	// Configuration search: total candidate configs across the library vs
	// the number of decisions actually taken for the workflow.
	CandidateConfigs int
	DecisionsTaken   int
}

// Overhead measures all three §3.3 overheads on the Figure 3 workload.
func Overhead() (*OverheadResult, error) {
	res := &OverheadResult{}

	cat := hardware.DefaultCatalog()
	lib := agents.DefaultLibrary()
	profiler := agents.NewProfiler(cat)
	store, err := profiler.ProfileLibrary(lib)
	if err != nil {
		return nil, err
	}
	res.ProfilesBuilt = store.Len()
	res.ProbeRuns = profiler.Probes()

	for _, c := range lib.Capabilities() {
		for _, im := range lib.ByCapability(c) {
			res.CandidateConfigs += len(im.CandidateConfigs(cat))
		}
	}

	rep, ex, err := RunMurakkabFree(core.Config{}, workflow.MinCost)
	if err != nil {
		return nil, err
	}
	res.PlanningLatencyFrac = rep.PlanningOverheadFrac
	res.PlanningTokensPrompt, res.PlanningTokensOutput = ex.Decomposition().TotalPlanningTokens()
	res.DecisionsTaken = len(ex.Plan().Decisions)
	return res, nil
}

// String renders the overhead report.
func (r *OverheadResult) String() string {
	var b strings.Builder
	b.WriteString("Murakkab overheads (§3.3)\n")
	fmt.Fprintf(&b, "(a) Profiling: %d profiles from %d probe runs, amortized over all workflows\n",
		r.ProfilesBuilt, r.ProbeRuns)
	fmt.Fprintf(&b, "(b) DAG creation: %d prompt + %d output tokens; %.2f%% of workflow time (paper: <1%%)\n",
		r.PlanningTokensPrompt, r.PlanningTokensOutput, 100*r.PlanningLatencyFrac)
	fmt.Fprintf(&b, "(c) Configuration search: %d candidate configs pruned to %d per-capability decisions\n",
		r.CandidateConfigs, r.DecisionsTaken)
	return b.String()
}
