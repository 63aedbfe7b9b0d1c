package core

import (
	"runtime"
	"testing"

	"repro/internal/sim"
	"repro/internal/workflow"
	"repro/internal/workload"
)

// execShape is one job shape of the execution-layer benchmark and budget: the
// ledger's three exec_heavy shapes and the three ServiceMix shapes.
type execShape struct {
	name string
	job  workflow.Job
}

func execShapes() []execShape {
	c := workflow.MinCost
	return []execShape{
		{"video_3x16", workload.VideoJob(3, 16, 30, 24, c)},
		{"newsfeed_12", workload.NewsfeedJob("reader", 12, c)},
		{"docqa_12", workload.DocQAJob(12, 2000, c)},
		{"mix_video_1x2", workload.VideoJob(1, 2, 30, 24, c)},
		{"mix_newsfeed_2", workload.NewsfeedJob("alice", 2, c)},
		{"mix_docqa_2", workload.DocQAJob(2, 800, c)},
	}
}

// runToCompletion submits one job the way a serving shard does — engines stay
// up between jobs, as the daemon's always do, and the finished job's block goes
// back to the runtime, as the api's record sends it — and drains the simulation.
func runToCompletion(tb testing.TB, se *sim.Engine, rt *Runtime, job workflow.Job) {
	ex, err := rt.Submit(job, SubmitOptions{RelaxFloor: true, KeepEngines: true})
	if err != nil {
		tb.Fatal(err)
	}
	se.Run()
	if !ex.Done() || ex.Err() != nil {
		tb.Fatalf("job did not complete: done=%v err=%v", ex.Done(), ex.Err())
	}
	ex.release()
}

// warmRuntime returns a runtime that has already served every shape once, so
// plan, decomposition and tool-call caches hit and the scratch pools are full.
func warmRuntime(tb testing.TB) (*sim.Engine, *Runtime) {
	se, _, rt := newRuntime(tb)
	for _, sh := range execShapes() {
		runToCompletion(tb, se, rt, sh.job)
	}
	return se, rt
}

// BenchmarkExecute is the execution layer's own benchmark (ROADMAP aim 1):
// one warm runtime, one job per iteration from submit to report, per shape.
// events/job and allocs/job are counts and travel between hosts; ns/op does
// not. `make profile-exec` profiles it.
func BenchmarkExecute(b *testing.B) {
	se, rt := warmRuntime(b)
	for _, sh := range execShapes() {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			events := se.Processed()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runToCompletion(b, se, rt, sh.job)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(se.Processed()-events)/float64(b.N), "events/job")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/job")
		})
	}
}
