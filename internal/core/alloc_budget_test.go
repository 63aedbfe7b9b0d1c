package core

import (
	"runtime"
	"testing"

	"repro/internal/agents"
	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/llmsim"
	"repro/internal/telemetry"
)

// TestExecAllocBudget holds the execution layer to a host-independent
// allocation budget, so a regression fails `go test ./...` without the
// ledger: one warm runtime, each shape submitted and run to its report. The
// counts are everything from Runtime.Submit to the finalized report — the
// execution's block, its serving engines (brought up and released per job
// here), telemetry points — and were 1092 / 144 / 172 for the three exec_heavy
// shapes and 128 / 80 / 64 for the ServiceMix shapes before grants became
// records, requests and allocations came from slabs and the tracer was sized
// from the graph; 179 / 37 / 57 and 56 / 37 / 35 while a job was some thirty
// objects (an execution, a tracker, a tracer, a report, a stage per capability
// with its queue and worker list) and every embedding task rendered, embedded
// and stored a document; 42 / 12 / 12 and 19 / 12 / 12 while every job brought
// its serving engines up and released them (no daemon does: runToCompletion
// now keeps them, which alone reads 17 / 7 / 7 and 7 / 6 / 6) and sim events
// and LLM requests were cut from slabs and left to the collector; 13 / 6 / 7
// and 6 / 6 / 6 while every job made its block (an Execution, four arrays and
// the planning callback) and left it to the collector. runToCompletion now
// releases the block as the api's record does, and the budgets are the measured
// 7 / 0 / 1 and 0 / 0 / 0 + 2 (telemetry doublings land on some jobs and not
// others): what is left is the cluster's allocation records and the series.
func TestExecAllocBudget(t *testing.T) {
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("allocation budgets are not asserted under the race detector or coverage")
	}
	budget := map[string]float64{
		"video_3x16": 9, "newsfeed_12": 2, "docqa_12": 3,
		"mix_video_1x2": 2, "mix_newsfeed_2": 2, "mix_docqa_2": 2,
	}
	se, rt := warmRuntime(t)
	for _, sh := range execShapes() {
		got := testing.AllocsPerRun(20, func() { runToCompletion(t, se, rt, sh.job) })
		if got > budget[sh.name] {
			t.Errorf("%s: %.0f allocations per job, budget %.0f", sh.name, got, budget[sh.name])
		}
		t.Logf("%s: %.0f allocations per job (budget %.0f)", sh.name, got, budget[sh.name])
	}
}

// TestExecByteBudget is TestExecAllocBudget in bytes, which is what the
// collector bills: at the server's heap size a GC cycle starts every ~2 MB
// allocated, whatever the object count. Same protocol, runtime.MemStats'
// TotalAlloc over the same 20 jobs per shape. A job's bytes are its block
// (24 bytes of span, some 30 of tracker cells and queues per node, the
// execution and a stage per capability), the cluster's allocation records and
// the telemetry series' growth; before sim events and LLM requests went back
// to their owners and spans were kept by node index the same protocol read
// 91,036 / 8,288 / 12,099 and 9,884 / 3,987 / 4,240, and before a settled
// job's block went back to the runtime 34,473 / 4,214 / 8,476 and 6,790 / 2,464
// / 2,876. The budgets are the measured 21,017 / 1,414 / 6,316 and 4,006 / 160 /
// 1,228 + 5 % (+ 64 bytes where that is more).
func TestExecByteBudget(t *testing.T) {
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("allocation budgets are not asserted under the race detector or coverage")
	}
	budget := map[string]uint64{
		"video_3x16": 22070, "newsfeed_12": 1485, "docqa_12": 6630,
		"mix_video_1x2": 4205, "mix_newsfeed_2": 224, "mix_docqa_2": 1292,
	}
	se, rt := warmRuntime(t)
	for _, sh := range execShapes() {
		const jobs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < jobs; i++ {
			runToCompletion(t, se, rt, sh.job)
		}
		runtime.ReadMemStats(&after)
		got := (after.TotalAlloc - before.TotalAlloc) / jobs
		if got > budget[sh.name] {
			t.Errorf("%s: %d bytes per job, budget %d", sh.name, got, budget[sh.name])
		}
		t.Logf("%s: %d bytes per job (budget %d)", sh.name, got, budget[sh.name])
	}
}

// releasingGrantee hands every grant straight back.
type releasingGrantee struct{}

func (releasingGrantee) GrantGPUs(a *cluster.GPUAlloc, _ uint32) { a.Release() }
func (releasingGrantee) GrantCPUs(a *cluster.CPUAlloc, _ uint32) { a.Release() }

// TestSteadyStateAllocatesNothing pins the per-task protocols at zero
// allocations on a warm runtime. testing.AllocsPerRun reports whole
// allocations per run, so what is amortized over many runs — one block per 64
// sim events, allocations or requests, a telemetry series doubling — reads as
// zero, and one allocation per cycle does not.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("allocation budgets are not asserted under the race detector or coverage")
	}
	se, rt := warmRuntime(t)

	t.Run("request and drain", func(t *testing.T) {
		var g releasingGrantee
		if got := testing.AllocsPerRun(500, func() {
			if err := rt.mgr.RequestGPUs(1, hardware.GPUA100, g, 0); err != nil {
				t.Fatal(err)
			}
			if err := rt.mgr.RequestCPUs(4, g, 0); err != nil {
				t.Fatal(err)
			}
			se.RunUntil(se.Now())
		}); got != 0 {
			t.Fatalf("RequestGPUs + RequestCPUs + drainPending allocate %.0f per cycle, want 0", got)
		}
		if rt.mgr.PendingGPURequests()+rt.mgr.PendingCPURequests() != 0 || rt.cl.FreeCPUCores() != 192 {
			t.Fatal("requests were not granted and released")
		}
	})

	t.Run("tracer within its size", func(t *testing.T) {
		var tr telemetry.Tracer
		tr.Init(&Execution{}, make([]telemetry.NodeSpan, 512))
		if got := testing.AllocsPerRun(250, func() {
			tr.StartNode()
			tr.StartNode()
			tr.EndNode(0, 1, 2)
			tr.EndNode(1, 1, 2)
		}); got != 0 {
			t.Fatalf("Tracer.StartNode + EndNode allocate %.0f per pair of spans, want 0", got)
		}
	})

	// spawn → grant → run → destroy: preempting the busy worker puts its
	// task back on the queue, destroys the worker and defers a pump, which
	// spawns a worker (off the runtime's pool), queues its request, gets it
	// granted and runs the task again — all at one sim instant.
	t.Run("worker cycle", func(t *testing.T) {
		ex, err := rt.Submit(execShapes()[3].job, SubmitOptions{RelaxFloor: true})
		if err != nil {
			t.Fatal(err)
		}
		capName := string(agents.CapFrameExtraction)
		stepUntil(t, se, "a frame-extraction worker is busy", func() bool {
			return ex.stageNamed(capName).busy > 0
		})
		st := ex.stageNamed(capName)
		if got := testing.AllocsPerRun(500, func() {
			st.workers[0].preempted()
			se.RunUntil(se.Now())
			if st.busy == 0 {
				t.Fatal("the task did not start again")
			}
		}); got != 0 {
			t.Fatalf("a worker spawn → grant → run → destroy cycle allocates %.0f, want 0", got)
		}
		se.Run()
		if !ex.Done() || ex.Err() != nil {
			t.Fatalf("job did not complete: done=%v err=%v", ex.Done(), ex.Err())
		}
	})

	// A request's trip through an engine: the record is the one the previous
	// call handed back, the completion event and the deferred drain of the
	// zero-length queue reuse the sim's records, and the engine itself
	// allocates nothing. What is left is the devices' telemetry series
	// doubling now and then.
	t.Run("llm request", func(t *testing.T) {
		h, err := rt.mgr.EnsureEngine(string(agents.CapSummarization), llmsim.Llama8B(), 1, hardware.GPUA100, 1, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.mgr.ReleaseEngine(h.Spec.Name)
		done := 0
		onComplete := func(r *llmsim.Request) { done++; rt.releaseRequest(r) }
		const cycles = 64 * 50
		got := testing.AllocsPerRun(1, func() {
			for i := 0; i < cycles; i++ {
				r := rt.newRequest()
				r.ID, r.PromptTokens, r.OutputTokens, r.OnComplete = "r", 64, 16, onComplete
				h.Engine.Submit(r)
				se.Run()
			}
		})
		if done != 2*cycles {
			t.Fatalf("%d of %d requests completed", done, 2*cycles)
		}
		if perCycle := got / cycles; perCycle > 2.0/64 {
			t.Fatalf("an LLM submit → complete cycle allocates %.4f, want at most 2/64 amortised", perCycle)
		} else {
			t.Logf("LLM submit → complete: %.4f allocations per cycle", perCycle)
		}
	})
}
