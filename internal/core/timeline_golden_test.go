package core_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/agents"
	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workflow"
	"repro/internal/workload"
)

var updateTimeline = flag.Bool("update-timeline", false, "rewrite testdata/timeline.golden from this build's answers")

// timelineShapes are the ledger's three exec_heavy shapes followed by the
// three ServiceMix shapes, in the order the golden was rendered.
func timelineShapes() []workflow.Job {
	c := workflow.MinCost
	return []workflow.Job{
		workload.VideoJob(3, 16, 30, 24, c),
		workload.NewsfeedJob("reader", 12, c),
		workload.DocQAJob(12, 2000, c),
		workload.VideoJob(1, 2, 30, 24, c),
		workload.NewsfeedJob("alice", 2, c),
		workload.DocQAJob(2, 800, c),
	}
}

// TestTimelineGolden compares every span a job records — telemetry.SpansCSV
// and the "timeline":true response body — with testdata/timeline.golden, which
// was rendered by the commit before the tracer kept its spans in graph-sized
// slices. Spans() feeds completion order into an unstable sort, so spans that
// tie on (start, track, label) keep their place only if that order is kept
// exactly; a golden is the one check that sees it. Three passes: the six
// shapes one after another through one api.Server, the same through one warm
// core.Runtime, and all six submitted at once (interleaved completions).
func TestTimelineGolden(t *testing.T) {
	var got bytes.Buffer

	s, err := api.NewServer(api.PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, job := range timelineShapes() {
		req := api.JobRequest{
			Tenant: "alice", Description: job.Description, Constraint: job.Constraint.String(),
			MinQuality: job.MinQuality, Tasks: job.Tasks, Wait: true, Timeline: true,
		}
		for _, in := range job.Inputs {
			req.Inputs = append(req.Inputs, api.InputRequest{Name: in.Name, Kind: string(in.Kind), Attrs: in.Attrs})
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		fmt.Fprintf(&got, "== server job %d -> %d\n%s", i, rec.Code, rec.Body.String())
	}

	newRuntime := func() (*sim.Engine, *core.Runtime) {
		se := sim.NewEngine()
		cl := cluster.New(se, hardware.DefaultCatalog())
		cl.AddVM("vm0", hardware.NDv4SKUName, false)
		cl.AddVM("vm1", hardware.NDv4SKUName, false)
		rt, err := core.New(core.Config{Engine: se, Cluster: cl, Library: agents.DefaultLibrary()})
		if err != nil {
			t.Fatal(err)
		}
		return se, rt
	}
	render := func(pass string, i int, ex *core.Execution) {
		if !ex.Done() || ex.Err() != nil {
			t.Fatalf("%s job %d: done=%v err=%v", pass, i, ex.Done(), ex.Err())
		}
		fmt.Fprintf(&got, "== %s job %d\n%s", pass, i, telemetry.SpansCSV(ex.Report().Tracer))
	}

	se, rt := newRuntime()
	for i, job := range timelineShapes() {
		ex, err := rt.Submit(job, core.SubmitOptions{RelaxFloor: true})
		if err != nil {
			t.Fatal(err)
		}
		se.Run()
		render("sequential", i, ex)
	}

	se, rt = newRuntime()
	var exs []*core.Execution
	for _, job := range timelineShapes() {
		ex, err := rt.Submit(job, core.SubmitOptions{RelaxFloor: true})
		if err != nil {
			t.Fatal(err)
		}
		exs = append(exs, ex)
	}
	se.Run()
	for i, ex := range exs {
		render("concurrent", i, ex)
	}

	const path = "testdata/timeline.golden"
	if *updateTimeline {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.SplitAfter(got.String(), "\n"), strings.SplitAfter(string(want), "\n")
	for i := range max(len(gl), len(wl)) {
		if i >= len(gl) || i >= len(wl) || gl[i] != wl[i] {
			t.Fatalf("line %d differs from %s\n got: %q\nwant: %q", i+1, path, lineAt(gl, i), lineAt(wl, i))
		}
	}
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<missing>"
}
