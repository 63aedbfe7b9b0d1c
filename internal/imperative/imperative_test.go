package imperative

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workflow"

	"repro/internal/agents"
)

func paperVideos() []workflow.Input {
	return []workflow.Input{
		workflow.VideoInput("cats.mov", 240, 30, 24),
		workflow.VideoInput("formula_1.mov", 240, 30, 24),
	}
}

func runBaseline(t *testing.T, videos []workflow.Input) (*sim.Engine, *cluster.Cluster, *report.Report) {
	t.Helper()
	se := sim.NewEngine()
	cl := cluster.New(se, hardware.DefaultCatalog())
	cl.AddVM("vm0", hardware.NDv4SKUName, false)
	cl.AddVM("vm1", hardware.NDv4SKUName, false)
	r := NewRunner(se, cl, agents.DefaultLibrary())
	rep, err := r.Run(DefaultVideoPipeline(), videos)
	if err != nil {
		t.Fatal(err)
	}
	se.Run()
	return se, cl, rep
}

func TestBaselineCompletesAllScenes(t *testing.T) {
	_, _, rep := runBaseline(t, paperVideos())
	// 16 scenes × 5 stages.
	if rep.TasksCompleted != 80 {
		t.Fatalf("tasks completed = %d, want 80", rep.TasksCompleted)
	}
	if rep.Tracer.OpenCount() != 0 {
		t.Fatalf("open spans = %d", rep.Tracer.OpenCount())
	}
}

func TestBaselineMakespanNearPaper(t *testing.T) {
	_, _, rep := runBaseline(t, paperVideos())
	// The paper's baseline completes in 283 s (285 in Table 2). Calibration
	// tolerance: ±15%.
	if rep.MakespanS < 240 || rep.MakespanS > 330 {
		t.Fatalf("baseline makespan = %.1f s, want ≈ 283 s", rep.MakespanS)
	}
}

func TestBaselineEnergyNearPaper(t *testing.T) {
	_, _, rep := runBaseline(t, paperVideos())
	// Table 2 baseline: 155 Wh GPU energy. Tolerance ±25% (the same band
	// EXPERIMENTS.md reports; the simulated power model undershoots the
	// paper's measured batch-1 decode power slightly).
	if rep.GPUEnergyWh < 116 || rep.GPUEnergyWh > 194 {
		t.Fatalf("baseline GPU energy = %.1f Wh, want ≈ 155 Wh", rep.GPUEnergyWh)
	}
}

func TestBaselineSequentialNoOverlap(t *testing.T) {
	_, _, rep := runBaseline(t, paperVideos())
	// Strict sequencing: no two spans overlap anywhere in the pipeline.
	spans := rep.Tracer.Spans()
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].End-1e-9 {
			t.Fatalf("spans overlap: %+v then %+v", spans[i-1], spans[i])
		}
	}
}

func TestBaselineUnderutilizes(t *testing.T) {
	_, _, rep := runBaseline(t, paperVideos())
	// Figure 3's point: the baseline "severely underutilizes resources".
	if rep.MeanGPUUtil > 0.25 {
		t.Fatalf("baseline mean GPU util = %.2f, expected < 0.25", rep.MeanGPUUtil)
	}
	if rep.MeanCPUUtil > 0.10 {
		t.Fatalf("baseline mean CPU util = %.2f, expected < 0.10", rep.MeanCPUUtil)
	}
}

func TestBaselineTracksMatchFigure3(t *testing.T) {
	_, _, rep := runBaseline(t, paperVideos())
	want := map[string]bool{
		"Frame Extraction": false, "Speech-to-Text": false,
		"Object Detection": false, "LLM (Text)": false, "LLM (Embeddings)": false,
	}
	for _, tr := range rep.Tracer.Tracks() {
		want[tr] = true
	}
	for tr, seen := range want {
		if !seen {
			t.Errorf("missing track %q", tr)
		}
	}
}

func TestBaselineVectorDBPopulated(t *testing.T) {
	se := sim.NewEngine()
	cl := cluster.New(se, hardware.DefaultCatalog())
	cl.AddVM("vm0", hardware.NDv4SKUName, false)
	cl.AddVM("vm1", hardware.NDv4SKUName, false)
	r := NewRunner(se, cl, agents.DefaultLibrary())
	if _, err := r.Run(DefaultVideoPipeline(), paperVideos()); err != nil {
		t.Fatal(err)
	}
	se.Run()
	if got := r.Documents().Len(); got != 16 {
		t.Fatalf("vectordb has %d scene embeddings, want 16", got)
	}
}

func TestBaselineResourcesReleasedAtEnd(t *testing.T) {
	_, cl, rep := runBaseline(t, paperVideos())
	if free := cl.FreeGPUs(hardware.GPUA100); free != 16 {
		t.Fatalf("free GPUs after run = %d, want 16", free)
	}
	if free := cl.FreeCPUCores(); free != 192 {
		t.Fatalf("free cores after run = %d, want 192", free)
	}
	_ = rep
}

func TestBaselineScalesWithWork(t *testing.T) {
	_, _, small := runBaseline(t, []workflow.Input{workflow.VideoInput("a.mov", 120, 30, 24)})
	_, _, large := runBaseline(t, []workflow.Input{workflow.VideoInput("a.mov", 480, 30, 24)})
	ratio := large.MakespanS / small.MakespanS
	if math.Abs(ratio-4) > 0.5 {
		t.Fatalf("makespan ratio = %.2f for 4× scenes, want ≈ 4 (sequential)", ratio)
	}
}

func TestBaselineRejectsNonVideo(t *testing.T) {
	se := sim.NewEngine()
	cl := cluster.New(se, hardware.DefaultCatalog())
	cl.AddVM("vm0", hardware.NDv4SKUName, false)
	r := NewRunner(se, cl, agents.DefaultLibrary())
	_, err := r.Run(DefaultVideoPipeline(), []workflow.Input{{Name: "x", Kind: workflow.InputText}})
	if err == nil {
		t.Fatal("non-video input accepted")
	}
}

func TestBaselineFailsWithoutResources(t *testing.T) {
	se := sim.NewEngine()
	cl := cluster.New(se, hardware.DefaultCatalog())
	// Only a CPU VM: the 1-GPU whisper binding cannot be satisfied.
	cl.AddVM("cpu0", "Standard_HB120rs_v3", false)
	r := NewRunner(se, cl, agents.DefaultLibrary())
	if _, err := r.Run(DefaultVideoPipeline(), paperVideos()); err == nil {
		t.Fatal("pipeline placed without GPUs")
	}
}
