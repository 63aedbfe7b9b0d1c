package core

import (
	"strings"
	"testing"

	"repro/internal/agents"
	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/optimizer"
	"repro/internal/profiles"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workflow"
)

func paperJob(c workflow.Constraint) workflow.Job {
	return workflow.Job{
		Description: "List objects shown/mentioned in the videos",
		Inputs: []workflow.Input{
			workflow.VideoInput("cats.mov", 240, 30, 24),
			workflow.VideoInput("formula_1.mov", 240, 30, 24),
		},
		Tasks: []string{
			"Extract frames from each video",
			"Run speech-to-text on all scenes",
			"Detect objects in the frames",
		},
		Constraint: c,
		MinQuality: 0.95,
	}
}

// paperPins fixes the §4 engine deployment: NVLM 8 GPUs text, 2 embeddings.
func paperPins() map[string]optimizer.Pin {
	return map[string]optimizer.Pin{
		string(agents.CapSummarization): {
			Implementation: agents.ImplNVLM,
			Config:         profiles.ResourceConfig{GPUs: 8, GPUType: hardware.GPUA100},
		},
		string(agents.CapEmbedding): {
			Implementation: agents.ImplNVLMEmbed,
			Config:         profiles.ResourceConfig{GPUs: 2, GPUType: hardware.GPUA100},
		},
	}
}

func newRuntime(t testing.TB) (*sim.Engine, *cluster.Cluster, *Runtime) {
	return newRuntimeWith(t, Config{})
}

// newRuntimeWith builds a runtime from cfg on the two-VM fleet, supplying the
// cluster, the default library and — unless cfg has one — the engine.
func newRuntimeWith(t testing.TB, cfg Config) (*sim.Engine, *cluster.Cluster, *Runtime) {
	t.Helper()
	if cfg.Engine == nil {
		cfg.Engine = sim.NewEngine()
	}
	cl := cluster.New(cfg.Engine, hardware.DefaultCatalog())
	cl.AddVM("vm0", hardware.NDv4SKUName, false)
	cl.AddVM("vm1", hardware.NDv4SKUName, false)
	cfg.Cluster, cfg.Library = cl, agents.DefaultLibrary()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cfg.Engine, cl, rt
}

func runJob(t *testing.T, c workflow.Constraint) (*cluster.Cluster, *Execution, *report.Report) {
	t.Helper()
	se, cl, rt := newRuntime(t)
	ex, err := rt.Submit(paperJob(c), SubmitOptions{
		Pinned:     paperPins(),
		RelaxFloor: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	se.Run()
	if !ex.Done() {
		t.Fatal("execution never completed")
	}
	if ex.Err() != nil {
		t.Fatal(ex.Err())
	}
	return cl, ex, ex.Report()
}

func TestMurakkabCompletesAllTasks(t *testing.T) {
	_, ex, rep := runJob(t, workflow.MinCost)
	if rep.TasksCompleted != 80 {
		t.Fatalf("tasks completed = %d, want 80", rep.TasksCompleted)
	}
	if rep.Tracer.OpenCount() != 0 {
		t.Fatal("open spans left behind")
	}
	if ex.ToolCalls() != 80 {
		t.Fatalf("tool calls = %d, want 80 (one per task)", ex.ToolCalls())
	}
}

func TestMurakkabMakespanNearPaper(t *testing.T) {
	// Table 2: Murakkab completes in 77–83 s depending on STT config. Under
	// MIN_COST (which picks the CPU config) we expect ≈ 83 s; allow ±20%.
	_, _, rep := runJob(t, workflow.MinCost)
	if rep.MakespanS < 60 || rep.MakespanS > 105 {
		t.Fatalf("murakkab MIN_COST makespan = %.1f s, want ≈ 83 s", rep.MakespanS)
	}
}

func TestMurakkabSpeedupOverBaseline(t *testing.T) {
	// The headline claim: ~3.4× faster than the 283 s baseline.
	_, _, rep := runJob(t, workflow.MinLatency)
	speedup := 285.0 / rep.MakespanS
	if speedup < 2.5 {
		t.Fatalf("speedup = %.2f× (makespan %.1f s), want ≥ 2.5×", speedup, rep.MakespanS)
	}
}

func TestMurakkabEnergyNearPaper(t *testing.T) {
	// Table 2 Murakkab CPU: 34 Wh. Allow ±35% (the shape matters: far
	// below the 155 Wh baseline).
	_, _, rep := runJob(t, workflow.MinCost)
	if rep.GPUEnergyWh < 22 || rep.GPUEnergyWh > 46 {
		t.Fatalf("murakkab MIN_COST GPU energy = %.1f Wh, want ≈ 34 Wh", rep.GPUEnergyWh)
	}
}

func TestMinCostPicksCPUSTT(t *testing.T) {
	_, ex, _ := runJob(t, workflow.MinCost)
	stt := ex.Plan().Decisions[string(agents.CapSpeechToText)]
	if stt.Config.GPUs != 0 {
		t.Fatalf("MIN_COST STT config = %v, want CPU-only (Table 2)", stt.Config)
	}
	if stt.Implementation != agents.ImplWhisper {
		t.Fatalf("STT impl = %s, want whisper under the quality floor", stt.Implementation)
	}
}

func TestPlanningOverheadUnderOnePercent(t *testing.T) {
	// §3.3(b): DAG creation takes "less than 1% of the execution time".
	_, _, rep := runJob(t, workflow.MinCost)
	if rep.PlanningOverheadFrac <= 0 {
		t.Fatal("planning overhead not recorded")
	}
	if rep.PlanningOverheadFrac > 0.01 {
		t.Fatalf("planning overhead = %.2f%%, want < 1%%", 100*rep.PlanningOverheadFrac)
	}
}

func TestResourcesFullyReleased(t *testing.T) {
	cl, _, _ := runJob(t, workflow.MinCost)
	if free := cl.FreeGPUs(hardware.GPUA100); free != 16 {
		t.Fatalf("free GPUs after run = %d, want 16", free)
	}
	if free := cl.FreeCPUCores(); free != 192 {
		t.Fatalf("free cores after run = %d, want 192", free)
	}
}

func TestVectorDBPopulatedPerScene(t *testing.T) {
	se, _, rt := newRuntime(t)
	job := paperJob(workflow.MinCost)
	ex, err := rt.Submit(job, SubmitOptions{Pinned: paperPins(), RelaxFloor: true})
	if err != nil {
		t.Fatal(err)
	}
	se.Run()
	if !ex.Done() {
		t.Fatal("not done")
	}
	if got := ex.Documents().Len(); got != 16 {
		t.Fatalf("documents = %d, want 16", got)
	}
}

func TestUtilizationAboveBaseline(t *testing.T) {
	// Figure 3: Murakkab's trace shows far better utilization than the
	// baseline's ~19% GPU / ~1% CPU.
	_, _, rep := runJob(t, workflow.MinLatency)
	if rep.MeanGPUUtil < 0.25 {
		t.Fatalf("murakkab mean GPU util = %.2f, want > 0.25", rep.MeanGPUUtil)
	}
}

func TestTracksMatchFigure3(t *testing.T) {
	_, _, rep := runJob(t, workflow.MinCost)
	tracks := map[string]bool{}
	for _, tr := range rep.Tracer.Tracks() {
		tracks[tr] = true
	}
	for _, want := range []string{"Speech-to-Text", "LLM (Text)", "LLM (Embeddings)", "Object Detection"} {
		if !tracks[want] {
			t.Errorf("missing Figure 3 track %q (have %v)", want, rep.Tracer.Tracks())
		}
	}
}

func TestSTTParallelismInTrace(t *testing.T) {
	// Murakkab "executes STT transcription for multiple scenes in parallel":
	// STT spans must overlap in time.
	_, _, rep := runJob(t, workflow.MinCost)
	var overlap bool
	spans := rep.Tracer.Spans()
	for i, a := range spans {
		if a.Track != "Speech-to-Text" {
			continue
		}
		for _, b := range spans[i+1:] {
			if b.Track != "Speech-to-Text" {
				continue
			}
			if b.Start < a.End && a.Start < b.End {
				overlap = true
			}
		}
	}
	if !overlap {
		t.Fatal("no overlapping STT spans; scenes ran sequentially")
	}
}

func TestDecisionsRecorded(t *testing.T) {
	_, _, rep := runJob(t, workflow.MinCost)
	stt, ok := rep.Decisions[string(agents.CapSpeechToText)]
	if !ok || !strings.Contains(stt, agents.ImplWhisper) {
		t.Fatalf("decisions = %v", rep.Decisions)
	}
}

func TestSubmitErrorsSurfaceSynchronously(t *testing.T) {
	_, _, rt := newRuntime(t)
	// Unplannable job.
	_, err := rt.Submit(workflow.Job{
		Description: "Do something",
		Inputs:      []workflow.Input{{Name: "x", Kind: workflow.InputText}},
		Constraint:  workflow.MinCost,
	}, SubmitOptions{})
	if err == nil {
		t.Fatal("unplannable job accepted")
	}
	// Unsatisfiable floor without relaxation.
	job := paperJob(workflow.MinCost)
	job.MinQuality = 0.999
	if _, err := rt.Submit(job, SubmitOptions{}); err == nil {
		t.Fatal("unsatisfiable floor accepted")
	}
}

func TestNewsfeedWorkflowEndToEnd(t *testing.T) {
	se, _, rt := newRuntime(t)
	job := workflow.Job{
		Description: "Generate social media newsfeed for Alice",
		Inputs: []workflow.Input{
			{Name: "alice", Kind: workflow.InputUser},
			{Name: "f1", Kind: workflow.InputTopic, Attrs: map[string]float64{"queries": 3}},
			{Name: "cats", Kind: workflow.InputTopic, Attrs: map[string]float64{"queries": 3}},
		},
		Constraint: workflow.MinLatency,
	}
	ex, err := rt.Submit(job, SubmitOptions{RelaxFloor: true})
	if err != nil {
		t.Fatal(err)
	}
	se.Run()
	if !ex.Done() || ex.Err() != nil {
		t.Fatalf("newsfeed failed: done=%v err=%v", ex.Done(), ex.Err())
	}
	if ex.Report().TasksCompleted != 5 {
		t.Fatalf("tasks = %d, want 5", ex.Report().TasksCompleted)
	}
}

func TestExecutionPathsRunMultipleRequests(t *testing.T) {
	se, _, rt := newRuntime(t)
	job := paperJob(workflow.MaxQuality)
	job.MinQuality = 0
	ex, err := rt.Submit(job, SubmitOptions{MaxPaths: 4, RelaxFloor: true})
	if err != nil {
		t.Fatal(err)
	}
	se.Run()
	if !ex.Done() || ex.Err() != nil {
		t.Fatalf("max-quality run failed: %v", ex.Err())
	}
	sum := ex.Plan().Decisions[string(agents.CapSummarization)]
	if sum.ExecutionPaths < 2 {
		t.Fatalf("paths = %d, want >= 2 under MAX_QUALITY", sum.ExecutionPaths)
	}
	if ex.Report().Quality <= 0.9 {
		t.Fatalf("quality = %v", ex.Report().Quality)
	}
}

func TestDeterministicExecution(t *testing.T) {
	run := func() (float64, float64) {
		se, _, rt := newRuntime(t)
		ex, err := rt.Submit(paperJob(workflow.MinCost), SubmitOptions{Pinned: paperPins(), RelaxFloor: true})
		if err != nil {
			t.Fatal(err)
		}
		se.Run()
		return ex.Report().MakespanS, ex.Report().GPUEnergyWh
	}
	m1, e1 := run()
	m2, e2 := run()
	if m1 != m2 || e1 != e2 {
		t.Fatalf("non-deterministic: (%v,%v) vs (%v,%v)", m1, e1, m2, e2)
	}
}

func TestMultiTenantSharedEngines(t *testing.T) {
	se, cl, rt := newRuntime(t)
	jobA := paperJob(workflow.MinCost)
	jobB := workflow.Job{
		Description: "Generate social media newsfeed for Alice",
		Inputs: []workflow.Input{
			{Name: "alice", Kind: workflow.InputUser},
			{Name: "f1", Kind: workflow.InputTopic},
		},
		Constraint: workflow.MinCost,
	}
	exA, err := rt.Submit(jobA, SubmitOptions{Pinned: paperPins(), RelaxFloor: true, KeepEngines: true})
	if err != nil {
		t.Fatal(err)
	}
	exB, err := rt.Submit(jobB, SubmitOptions{
		Pinned: map[string]optimizer.Pin{
			string(agents.CapSummarization): paperPins()[string(agents.CapSummarization)],
		},
		RelaxFloor: true, KeepEngines: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	se.Run()
	if !exA.Done() || !exB.Done() {
		t.Fatal("multi-tenant jobs did not complete")
	}
	if exA.Err() != nil || exB.Err() != nil {
		t.Fatalf("errors: %v / %v", exA.Err(), exB.Err())
	}
	// Engines kept: the NVLM deployment still holds its GPUs.
	if _, ok := rt.Manager().Engine("nvlm-d-72b"); !ok {
		t.Fatal("shared engine released despite KeepEngines")
	}
	if free := cl.FreeGPUs(hardware.GPUA100); free == 16 {
		t.Fatal("engines hold no GPUs")
	}
}
