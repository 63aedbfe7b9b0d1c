package core

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/agents"
	"repro/internal/telemetry"
	"repro/internal/vectordb"
	"repro/internal/workflow"
	"repro/internal/workload"
)

// mallocsDuring counts the heap allocations f makes (nothing else runs in
// these tests; callers take the minimum over a few repetitions anyway).
func mallocsDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// blockAllocs is what launching a job allocates on a warm runtime whose
// engines are up when no released block is parked: the Execution and the four
// arrays cut up beside it (int32s, spans, stages, worker slots), and the
// planning charge's one callback, which binds the Execution and stays with it.
// Launching into a parked block that is large enough allocates nothing.
const blockAllocs = 5 + 1

// TestExecutionIsOneBlock holds launch to the block — the same count for two
// stages and 13 nodes as for five stages and 240, and none at all once the
// job's owner released a block of that size — and checks after the run
// that nothing outgrew it: no stage replaced its queue or worker list, the
// ready buffer, the embedding record and the engine refs are the arrays
// launch cut, and the job left one span per node — the slots the tracer was
// given, each 24 bytes — and never had more of them open at once than it ran
// tasks side by side.
func TestExecutionIsOneBlock(t *testing.T) {
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("allocation counts are not asserted under the race detector or coverage")
	}
	se, rt := warmRuntime(t)
	opts := SubmitOptions{RelaxFloor: true, KeepEngines: true}
	for _, sh := range execShapes() {
		var ex *Execution
		launch := uint64(math.MaxUint64)
		for i := 0; i < 6; i++ { // the first brings the shape's engines up and stays out of the minimum
			n := mallocsDuring(func() {
				var err error
				if ex, err = rt.Submit(sh.job, opts); err != nil {
					t.Fatal(err)
				}
			})
			if i > 0 {
				launch = min(launch, n)
			}
			se.Run()
			if !ex.Done() || ex.Err() != nil {
				t.Fatalf("%s: done=%v err=%v", sh.name, ex.Done(), ex.Err())
			}
		}
		if launch != blockAllocs {
			t.Errorf("%s: launching allocates %d, want the block's %d", sh.name, launch, blockAllocs)
		}

		nodes, running := ex.graph.Len(), 0
		for i := range ex.stages {
			st := &ex.stages[i]
			if cap(st.queue) != st.tasks {
				t.Errorf("%s: stage %s replaced its queue (cap %d, %d tasks)", sh.name, st.cap, cap(st.queue), st.tasks)
			}
			if st.isLLM {
				running += st.tasks
				continue
			}
			running += st.width()
			if cap(st.workers) != st.width() {
				t.Errorf("%s: stage %s replaced its worker list (cap %d, width %d)", sh.name, st.cap, cap(st.workers), st.width())
			}
		}
		if cap(ex.readyBuf) != nodes || cap(ex.heldEngines) != len(ex.heldBuf) {
			t.Errorf("%s: ready buffer cap %d of %d nodes, engine refs cap %d", sh.name, cap(ex.readyBuf), nodes, cap(ex.heldEngines))
		}
		if st := ex.stageNamed(string(agents.CapEmbedding)); st != nil && (len(ex.embedded) != st.tasks || cap(ex.embedded) != st.tasks) {
			t.Errorf("%s: %d embedding completions noted in room for %d, of %d tasks", sh.name, len(ex.embedded), cap(ex.embedded), st.tasks)
		}
		spans := ex.Report().Tracer.Spans()
		if len(spans) != nodes {
			t.Errorf("%s: %d spans for %d nodes", sh.name, len(spans), nodes)
		}
		if open := maxOpenSpans(spans); open > running {
			t.Errorf("%s: %d spans open at once, of at most %d tasks running", sh.name, open, running)
		}
		if ex.tracer.OpenCount() != 0 {
			t.Errorf("%s: %d spans still open", sh.name, ex.tracer.OpenCount())
		}
		// One slot per node, filled exactly: the next span is the first to
		// move the tracer off the block.
		extra := mallocsDuring(func() {
			ex.tracer.StartNode()
			ex.tracer.EndNode(0, 0, 0)
		})
		if extra != 1 {
			t.Errorf("%s: a span past the graph's %d nodes allocated %d times, want 1 (the spill)", sh.name, nodes, extra)
		}

		// Released, the block is what the next launch of the shape is cut from.
		for i := 0; i < 3; i++ {
			ex.release()
			if rt.ParkedBlocks() != 1 {
				t.Fatalf("%s: %d blocks parked after a clean job's release, want 1", sh.name, rt.ParkedBlocks())
			}
			parked := ex
			n := mallocsDuring(func() {
				var err error
				if ex, err = rt.Submit(sh.job, opts); err != nil {
					t.Fatal(err)
				}
			})
			if n != 0 || ex != parked {
				t.Errorf("%s: launching into the released block allocates %d (same block: %v), want 0", sh.name, n, ex == parked)
			}
			se.Run()
			if !ex.Done() || ex.Err() != nil {
				t.Fatalf("%s: done=%v err=%v", sh.name, ex.Done(), ex.Err())
			}
		}
		rt.execFree = nil // the next shape starts cold
	}
	if got := unsafe.Sizeof(telemetry.NodeSpan{}); got != 24 {
		t.Errorf("a span slot is %d bytes, want 24", got)
	}
}

// maxOpenSpans returns how many of the spans overlap at the busiest instant
// (a span that ends when another starts was closed first).
func maxOpenSpans(spans []telemetry.Span) int {
	type edge struct {
		at    float64
		delta int
	}
	edges := make([]edge, 0, 2*len(spans))
	for _, sp := range spans {
		edges = append(edges, edge{sp.Start, +1}, edge{sp.End, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta
	})
	open, most := 0, 0
	for _, e := range edges {
		open += e.delta
		most = max(most, open)
	}
	return most
}

var updateDocuments = flag.Bool("update-documents", false, "rewrite testdata/documents.golden from this build's answers")

// TestDocumentsMatchTheStore reads three jobs' embedding documents through
// the execution and compares them — IDs, texts, every vector bit, the order,
// and what a search ranks first — with testdata/documents.golden, which the
// commit before this one rendered from the runtime-wide vector store its
// embedding tasks inserted into as they completed.
func TestDocumentsMatchTheStore(t *testing.T) {
	var b strings.Builder
	for _, c := range []struct {
		name string
		job  workflow.Job
		opts SubmitOptions
	}{
		{"video_1x16", workload.VideoJob(1, 16, 30, 24, workflow.MinCost), SubmitOptions{RelaxFloor: true}},
		{"paper", paperJob(workflow.MinCost), SubmitOptions{Pinned: paperPins(), RelaxFloor: true}},
		{"docqa_12", workload.DocQAJob(12, 2000, workflow.MinCost), SubmitOptions{RelaxFloor: true}},
	} {
		se, _, rt := newRuntime(t)
		ex, err := rt.Submit(c.job, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if n := ex.Documents().Len(); n != 0 {
			t.Fatalf("%s: %d documents before any task ran", c.name, n)
		}
		se.Run()
		ix := ex.Documents()
		if ix != ex.Documents() {
			t.Fatalf("%s: a second read built the documents again", c.name)
		}
		fmt.Fprintf(&b, "%s: %d documents, dim %d\n", c.name, ix.Len(), ix.Dim())
		for _, d := range ix.Docs() {
			h := sha256.New()
			for _, x := range d.Vector {
				binary.Write(h, binary.BigEndian, math.Float64bits(x))
			}
			fmt.Fprintf(&b, "  %s\t%q\t%x\n", d.ID, d.Text, h.Sum(nil))
		}
		matches, err := ix.Search(vectordb.Embed(ix.Docs()[0].Text, ix.Dim()), 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range matches {
			fmt.Fprintf(&b, "  top: %016x %s\n", math.Float64bits(m.Score), m.Doc.ID)
		}
	}
	const path = "testdata/documents.golden"
	if *updateDocuments {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Fatalf("documents differ from %s:\n%s", path, b.String())
	}
}

// canceledMidRun cancels a five-stage job while three of its stages hold
// workers and another job's workers are queued for the cores they occupy, and
// logs the cluster at the cancel, the other job's worker pools, and that job
// and the cluster at the end: which queued request each released core goes to
// is decided by the order the canceled job's stages shut down in.
func canceledMidRun(t *testing.T, g *grantLog) {
	se, cl, rt := newRuntime(t)
	opts := SubmitOptions{Pinned: paperPins(), RelaxFloor: true}
	waiting, err := rt.Submit(paperJob(workflow.MinCost), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Twice the scenes: its planning queries finish first and its workers take
	// every core before the other job's ask.
	victim, err := rt.Submit(workload.VideoJob(3, 16, 30, 24, workflow.MinCost), opts)
	if err != nil {
		t.Fatal(err)
	}
	stepUntil(t, se, "three of the victim's stages are busy and the other job waits for cores", func() bool {
		busy := 0
		for i := range victim.stages {
			if victim.stages[i].busy > 0 {
				busy++
			}
		}
		return busy >= 3 && rt.mgr.PendingCPURequests() > 0
	})
	g.linef("before cancel: pendingGPU=%d pendingCPU=%d", rt.mgr.PendingGPURequests(), rt.mgr.PendingCPURequests())
	if !victim.Cancel() {
		t.Fatal("the running job was not cancelable")
	}
	g.linef("after cancel: pendingGPU=%d pendingCPU=%d", rt.mgr.PendingGPURequests(), rt.mgr.PendingCPURequests())
	g.cluster(cl)
	for i := range waiting.stages {
		g.workers("waiting job, "+waiting.stages[i].cap, &waiting.stages[i], rt)
	}
	se.Run()
	g.execution("waiting job", waiting)
	g.cluster(cl)
}

// TestCancelShutsStagesDownInSlotOrder: Execution.finish used to range over a
// map of stages, so a mid-run cancel released the job's allocations — and
// re-granted them to whoever was queued — in a different order from run to
// run. Twin runtimes must log the same grants and the same telemetry, bit for
// bit, every time.
func TestCancelShutsStagesDownInSlotOrder(t *testing.T) {
	for i := 0; i < 20; i++ {
		one, two := &grantLog{t: t}, &grantLog{t: t}
		canceledMidRun(t, one)
		canceledMidRun(t, two)
		if one.String() != two.String() {
			t.Fatalf("run %d: twin runtimes diverged after the cancel:\n%s\n--- and ---\n%s", i, one.String(), two.String())
		}
	}
}
