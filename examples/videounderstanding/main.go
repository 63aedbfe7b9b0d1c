// Video Understanding, both ways: the paper's Listing 1 (imperative, rigid
// bindings, sequential scenes) against Listing 2 (declarative, Murakkab) on
// identical inputs and cluster — the §4 evaluation as a program.
//
//	go run ./examples/videounderstanding
package main

import (
	"fmt"
	"log"

	"repro/internal/agents"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hardware"
	"repro/internal/imperative"
	"repro/internal/sim"
	"repro/internal/vectordb"
	"repro/internal/workflow"
)

func main() {
	videos := []workflow.Input{
		workflow.VideoInput("cats.mov", 240, 30, 24),
		workflow.VideoInput("formula_1.mov", 240, 30, 24),
	}

	// ---- Listing 1: today's imperative workflow --------------------------
	// Components are bound to specific models, provider keys and fixed
	// resources; every binding is held for the whole run.
	se1 := sim.NewEngine()
	cl1 := cluster.New(se1, hardware.DefaultCatalog())
	cl1.AddVM("vm0", hardware.NDv4SKUName, false)
	cl1.AddVM("vm1", hardware.NDv4SKUName, false)
	runner := imperative.NewRunner(se1, cl1, agents.DefaultLibrary())
	baseRep, err := runner.Run(imperative.DefaultVideoPipeline(), videos)
	if err != nil {
		log.Fatal(err)
	}
	se1.Run()

	fmt.Println("== Listing 1 (imperative baseline, OmAgent-derived) ==")
	fmt.Println(baseRep.String())
	fmt.Print(baseRep.Timeline(72))

	// ---- Listing 2: Murakkab ----------------------------------------------
	se2 := sim.NewEngine()
	cl2 := cluster.New(se2, hardware.DefaultCatalog())
	cl2.AddVM("vm0", hardware.NDv4SKUName, false)
	cl2.AddVM("vm1", hardware.NDv4SKUName, false)
	rt, err := core.New(core.Config{Engine: se2, Cluster: cl2, Library: agents.DefaultLibrary()})
	if err != nil {
		log.Fatal(err)
	}
	job := workflow.Job{
		Description: "List objects shown/mentioned in the videos",
		Inputs:      videos,
		Constraint:  workflow.MinCost,
		MinQuality:  0.95,
	}
	ex, err := rt.Submit(job, core.SubmitOptions{
		Pinned:     experiments.PaperEnginePins(), // §4: NVLM on 8 + 2 GPUs
		RelaxFloor: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	se2.Run()
	muRep := ex.Report()

	fmt.Println("\n== Listing 2 (Murakkab, MIN_COST) ==")
	fmt.Println(muRep.String())
	fmt.Print(muRep.Timeline(72))

	fmt.Printf("\nSpeedup: %.1fx (paper reports ~3.4x)\n", baseRep.MakespanS/muRep.MakespanS)
	fmt.Printf("Energy efficiency: %.1fx (paper reports ~4.5x)\n", baseRep.GPUEnergyWh/muRep.GPUEnergyWh)
	fmt.Printf("Planning overhead: %.2f%% of workflow time (paper: <1%%)\n", 100*muRep.PlanningOverheadFrac)

	// The execution's embedding tasks produced one document per scene; ask
	// them a question to close the §4 loop (embeddings → question answering).
	docs := ex.Documents()
	matches, err := docs.Search(queryVector(docs.Dim()), 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nTop scenes for query 'summary of cats.mov scene 0':")
	for _, m := range matches {
		fmt.Printf("  %.3f  %s\n", m.Score, m.Doc.Text)
	}
}

func queryVector(dim int) []float64 {
	// Embed the same text the runtime embedded for scene 0 of cats.mov.
	return vectordb.Embed("summary of cats.mov scene 0", dim)
}
