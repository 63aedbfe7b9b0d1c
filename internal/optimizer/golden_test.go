package optimizer

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/agents"
	"repro/internal/planner"
	"repro/internal/workflow"
	"repro/internal/workload"
)

var updatePlans = flag.Bool("update-plans", false, "rewrite testdata/plans.golden")

var allConstraints = []workflow.Constraint{
	workflow.MinCost, workflow.MinLatency, workflow.MinPower, workflow.MaxQuality,
}

// goldenPlanJobs is the three workload kinds at several sizes each.
func goldenPlanJobs() map[string]workflow.Job {
	c := workflow.MinCost // Options carry the constraint; the job's is unused
	return map[string]workflow.Job{
		"video_1x4":   workload.VideoJob(1, 4, 30, 12, c),
		"video_2x8":   workload.VideoJob(2, 8, 30, 24, c),
		"video_3x16":  workload.VideoJob(3, 16, 30, 24, c),
		"video_5x7":   workload.VideoJob(5, 7, 20, 10, c),
		"newsfeed_1":  workload.NewsfeedJob("ann", 1, c),
		"newsfeed_6":  workload.NewsfeedJob("bob", 6, c),
		"newsfeed_40": workload.NewsfeedJob("cat", 40, c),
		"docqa_1":     workload.DocQAJob(1, 800, c),
		"docqa_9":     workload.DocQAJob(9, 2500, c),
		"docqa_70":    workload.DocQAJob(70, 12000, c),
	}
}

// renderPlan prints every field of a plan, floats as hex so a changed last
// bit shows.
func renderPlan(b *strings.Builder, p *Plan) {
	fmt.Fprintf(b, "  plan cost=%x energy=%x latency=%x quality=%x\n", p.EstCostUSD, p.EstEnergyJ, p.EstLatencyS, p.EstQuality)
	caps := make([]string, 0, len(p.Decisions))
	for c := range p.Decisions {
		caps = append(caps, c)
	}
	slices.Sort(caps)
	for _, c := range caps {
		d := p.Decisions[c]
		fmt.Fprintf(b, "  %s/%s: %s pinned=%v scaling=%v latency=%x cost=%x energy=%x quality=%x\n",
			c, d.Capability, d.AppendLabel(nil), d.Pinned, d.AllowScaling, d.EstLatencyS, d.EstCostUSD, d.EstEnergyJ, d.Quality)
	}
}

// TestPlansGolden pins the full Plan — decisions and estimates to the bit —
// for the three workload kinds at several sizes under all four constraints,
// with the floor off, on, and unsatisfiable-but-relaxed, to a file rendered
// by the enumerate → prune → pick search this package had before the
// single-pass one.
func TestPlansGolden(t *testing.T) {
	opt, snap, _ := setup(t)
	pl := planner.New(agents.DefaultLibrary())
	jobs := goldenPlanJobs()
	names := make([]string, 0, len(jobs))
	for n := range jobs {
		names = append(names, n)
	}
	slices.Sort(names)
	variants := []Options{
		{},
		{MinQuality: 0.9},
		{MinQuality: 0.99, RelaxFloor: true, MaxPaths: 4},
		{MaxPaths: 4},
	}
	var b strings.Builder
	for _, n := range names {
		res, err := pl.Decompose(jobs[n])
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range allConstraints {
			for _, o := range variants {
				o.Constraint = c
				fmt.Fprintf(&b, "# %s %s floor=%v relax=%v paths=%d\n", n, c, o.MinQuality, o.RelaxFloor, o.MaxPaths)
				p, err := opt.Plan(res.Graph, snap, o)
				if err != nil {
					fmt.Fprintf(&b, "  error: %v\n", err)
					continue
				}
				renderPlan(&b, p)
			}
		}
	}
	if *updatePlans {
		if err := os.WriteFile("testdata/plans.golden", []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile("testdata/plans.golden")
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Fatalf("plans differ from testdata/plans.golden (rendered before the search became one pass); got:\n%s", b.String())
	}
}
