// Quickstart: the paper's Listing 2 in runnable form.
//
// A declarative Job — description, inputs, optional task hints, a
// constraint — is submitted to the Murakkab runtime, which decomposes it
// with the (simulated) orchestrator LLM, picks models and hardware via
// execution profiles, and runs it on a simulated two-VM A100 cluster.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"maps"
	"slices"

	"repro/internal/agents"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/sim"
	"repro/internal/workflow"
)

func main() {
	// Provision the §4 testbed: two Standard_ND96amsr_A100_v4 VMs
	// (96 vCPUs + 8×A100 each) on a deterministic simulation clock.
	se := sim.NewEngine()
	cl := cluster.New(se, hardware.DefaultCatalog())
	cl.AddVM("vm0", hardware.NDv4SKUName, false)
	cl.AddVM("vm1", hardware.NDv4SKUName, false)

	rt, err := core.New(core.Config{
		Engine:  se,
		Cluster: cl,
		Library: agents.DefaultLibrary(),
	})
	if err != nil {
		log.Fatal(err)
	}

	// Listing 2: describe the job; don't pick models, providers or GPUs.
	job := workflow.Job{
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
		Constraint: workflow.MinCost,
		MinQuality: 0.95,
	}

	ex, err := rt.Submit(job, core.SubmitOptions{RelaxFloor: true})
	if err != nil {
		log.Fatal(err)
	}
	se.Run() // drive the simulation to completion

	rep := ex.Report()
	fmt.Println("== Result ==")
	fmt.Println(rep.String())

	fmt.Println("\n== Decisions the runtime made (Table 1 levers) ==")
	for _, cap := range slices.Sorted(maps.Keys(rep.Decisions)) {
		fmt.Printf("  %-20s %s\n", cap, rep.Decisions[cap])
	}

	fmt.Println("\n== How the orchestrator decomposed the job (ReAct) ==")
	for _, step := range ex.Decomposition().Trace() {
		fmt.Printf("  Thought: %s\n  Action: %s (%s)\n", step.Thought, step.Action, step.Observation)
	}

	fmt.Println("\n== Execution timeline (Figure 3 style) ==")
	fmt.Print(rep.Timeline(72))
}
