package core

import (
	"strings"
	"testing"

	"repro/internal/agents"
	"repro/internal/llmsim"
	"repro/internal/workflow"
	"repro/internal/workload"
)

// requestScenarios runs, on one runtime with recovery on, the four ways an LLM
// request's life can go other than "submitted, completed": sharing a top-k
// barrier with its sibling paths, failing with an injected Err (the task backs
// off and retries), completing into an execution that was canceled meanwhile,
// and being thrown back on the queue by an engine crash. It logs each job's
// outcome and the cluster at the end, bit for bit.
func requestScenarios(t *testing.T, g *grantLog, rt *Runtime) {
	se, cl := rt.se, rt.cl
	orchestrator := func() *llmsim.Engine {
		h, ok := rt.mgr.EngineForCapability(string(agents.CapSummarization))
		if !ok {
			t.Fatal("no summarization engine")
		}
		return h.Engine
	}
	midRequest := func(ex *Execution) {
		stepUntil(t, se, "summarization requests are in flight", func() bool {
			st := ex.stageNamed(string(agents.CapSummarization))
			return st.inflight > 1 && orchestrator().ActiveCount() > 1
		})
	}
	submit := func(job workflow.Job, opts SubmitOptions) *Execution {
		opts.RelaxFloor = true
		ex, err := rt.Submit(job, opts)
		if err != nil {
			t.Fatal(err)
		}
		return ex
	}
	video := workload.VideoJob(1, 8, 30, 24, workflow.MinCost)

	topK := paperJob(workflow.MaxQuality)
	topK.MinQuality = 0
	ex := submit(topK, SubmitOptions{MaxPaths: 4})
	se.Run()
	if paths := ex.Plan().Decisions[string(agents.CapSummarization)].ExecutionPaths; paths < 2 {
		t.Fatalf("top-k job planned %d execution paths, want several requests per task", paths)
	}
	g.execution("top-k paths", ex)

	ex = submit(video, SubmitOptions{})
	midRequest(ex)
	if !orchestrator().FailNext(0.3) || !orchestrator().FailNext(0.9) {
		t.Fatal("no request to fail")
	}
	se.Run()
	if ex.Retries() == 0 || len(ex.Attempts()) == 0 || !strings.Contains(ex.Attempts()[0].Err, llmsim.ErrInjected.Error()) {
		t.Fatalf("injected call errors were not retried as such: retries=%d attempts=%+v", ex.Retries(), ex.Attempts())
	}
	g.execution("injected Err", ex)

	ex = submit(video, SubmitOptions{})
	midRequest(ex)
	ex.Cancel()
	se.Run() // the requests in flight complete into the canceled execution
	g.execution("cancel mid-request", ex)

	ex = submit(video, SubmitOptions{})
	midRequest(ex)
	orchestrator().Crash(5)
	if orchestrator().ActiveCount() != 0 || orchestrator().QueueDepth() < 2 {
		t.Fatal("the crash did not put the active requests back on the queue")
	}
	se.Run()
	g.execution("crash re-queue", ex)
	g.cluster(cl)
}

// TestCompletedRequestsAreReused is TestGrantRecordsAreNeverReused inverted:
// an llmsim.Request goes back to the runtime in its own completion callback
// and the next call takes it. That is only sound if nothing reads a request
// after its callback — so the scenarios run on a recycling runtime and on one
// that never reuses a record (noReuse), and must log the same bytes;
// and it is only worth having if records really do come back — so a second
// pass over the scenarios must be served entirely by the first pass's records,
// every one of which must be home again at the end.
func TestCompletedRequestsAreReused(t *testing.T) {
	run := func(reuse bool) (log [2]string, rt *Runtime, firstPass map[*llmsim.Request]bool) {
		// Recovery without breakers: the scenarios' failures stay retries.
		_, _, rt = newRuntimeWith(t, Config{Recovery: &FaultPolicy{Seed: 5, BreakerThreshold: -1}, noReuse: !reuse})
		for pass := range log {
			g := &grantLog{t: t}
			requestScenarios(t, g, rt)
			log[pass] = g.String()
			if pass == 0 {
				firstPass = map[*llmsim.Request]bool{}
				for _, r := range rt.reqFree {
					firstPass[r] = true
				}
			}
		}
		return log, rt, firstPass
	}
	want, ref, _ := run(false)
	got, rt, firstPass := run(true)
	for pass := range want {
		if got[pass] != want[pass] {
			t.Fatalf("pass %d: recycling requests changed what the jobs computed:\n%s\n--- without reuse ---\n%s", pass, got[pass], want[pass])
		}
	}
	if len(ref.reqFree) != 0 {
		t.Fatalf("the reference runtime recycled %d requests", len(ref.reqFree))
	}

	// The first pass cut as many records as it ever had in flight at once, and
	// all of them came home.
	if n := len(firstPass); n == 0 || n > 64 {
		t.Fatalf("the first pass left %d records on the free list, want a job's worth in flight at once", n)
	}
	if len(rt.reqFree) != len(firstPass) {
		t.Fatalf("%d records on the free list after the second pass, %d after the first: the second cut fresh ones or lost some",
			len(rt.reqFree), len(firstPass))
	}
	for _, r := range rt.reqFree {
		if !firstPass[r] {
			t.Fatal("the second pass cut a fresh record although completed ones were free")
		}
		if r.ID != "" || r.OnComplete != nil || r.Err != nil || r.PromptTokens != 0 || r.CompletedAt != 0 {
			t.Fatalf("a free record still carries its last call: %+v", *r)
		}
		delete(firstPass, r)
	}
	if len(firstPass) != 0 {
		t.Fatalf("%d records are on the free list twice", len(firstPass))
	}
}
