package core

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/agents"
	"repro/internal/cluster"
	"repro/internal/clustermgr"
	"repro/internal/hardware"
	"repro/internal/optimizer"
	"repro/internal/profiles"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workflow"
	"repro/internal/workload"
)

var updateGrants = flag.Bool("update-grants", false, "rewrite testdata/grants.golden from this build's answers")

// grantLog renders what the stale-grant scenarios observe; the golden it is
// compared with was rendered by the commit before grants became typed records
// (closures captured the worker and its generation then).
type grantLog struct {
	bytes.Buffer
	t *testing.T
}

func (g *grantLog) linef(format string, args ...any) { fmt.Fprintf(g, format+"\n", args...) }

// goldenStatsFields are the fields SchedulerStats had, in their order, when
// the golden was rendered with %+v — before its counters moved into the
// embedded Counters.
var goldenStatsFields = strings.Fields(`Submitted Completed Failed Canceled Running Queued
	PeakRunning PlanSearches SingleflightHits PlanConflicts PlanSearchInflight Reconfigs
	ReconfigWins ReconfigSkips ReconfigConflicts TaskRetries RetriesExhausted
	DeadlinesExceeded Degradations StageTimeouts FaultsInjected BreakerTrips BreakerOpen
	SLOShed SLOBudgetExhausted SLODegradedAdmits SLOMet SLOMissed OverloadEnters
	OverloadExits OverloadActive`)

// goldenStats renders st as %+v rendered the SchedulerStats of goldenStatsFields.
func goldenStats(st SchedulerStats) string {
	v := reflect.ValueOf(st)
	parts := make([]string, len(goldenStatsFields))
	for i, name := range goldenStatsFields {
		parts[i] = fmt.Sprintf("%s:%v", name, v.FieldByName(name))
	}
	return "{" + strings.Join(parts, " ") + "}"
}

func cpuID(a *cluster.CPUAlloc) string {
	if a == nil {
		return "-"
	}
	return fmt.Sprint(a.ID)
}

func gpuID(a *cluster.GPUAlloc) string {
	if a == nil {
		return "-"
	}
	return fmt.Sprint(a.ID)
}

// workers renders one stage's pool: per worker its generation, readiness and
// the IDs of the allocations it holds — allocation IDs are handed out by the
// cluster in grant order, so a stale grant that was released still shows as a
// gap.
func (g *grantLog) workers(label string, st *stage, rt *Runtime) {
	g.linef("%s: workers=%d pool=%d pendingGPU=%d pendingCPU=%d clusterGen=%d", label,
		len(st.workers), len(rt.workerPool), rt.mgr.PendingGPURequests(), rt.mgr.PendingCPURequests(), rt.cl.Gen())
	idle, busy := 0, 0
	for i, w := range st.workers {
		g.linef("  w%d gen=%d ready=%v busy=%v gpu=%s cpu=%s", i, w.gen, w.ready, w.busy, gpuID(w.gpuAlloc), cpuID(w.cpuAlloc))
		if w.busy {
			busy++
		} else if w.ready {
			idle++
		}
	}
	// The counters pump consults must agree with a scan of the pool.
	if st.idle != idle || st.busy != busy {
		g.t.Fatalf("%s: stage counts idle=%d busy=%d, a scan finds %d and %d", label, st.idle, st.busy, idle, busy)
	}
}

// cluster renders the cluster's generation and every telemetry series'
// length and integral.
func (g *grantLog) cluster(cl *cluster.Cluster) {
	now := cl.Engine().Now().Seconds()
	g.linef("cluster: gen=%d now=%v gpuJ=%v cpuJ=%v freeGPU=%d freeCPU=%d", cl.Gen(), now,
		cl.GPUEnergyJoules(0, now), cl.CPUEnergyJoules(0, now), cl.FreeGPUs(hardware.GPUA100), cl.FreeCPUCores())
	for _, vm := range cl.VMs() {
		g.linef("  %s cpu_util n=%d int=%v", vm.Name, vm.CPUUtil().Len(), vm.CPUUtil().Integral(0, now))
		for _, d := range vm.GPUs() {
			g.linef("  %s util n=%d int=%v power n=%d int=%v", d.ID,
				d.Util().Len(), d.Util().Integral(0, now), d.Power().Len(), d.Power().Integral(0, now))
		}
	}
}

func (g *grantLog) execution(label string, ex *Execution) {
	if !ex.Done() {
		g.t.Fatalf("%s: execution never completed", label)
	}
	for i := range ex.stages {
		if st := &ex.stages[i]; len(st.workers) != 0 || st.idle != 0 || st.busy != 0 {
			g.t.Fatalf("%s: stage %s ends with %d workers, idle=%d busy=%d", label, st.cap, len(st.workers), st.idle, st.busy)
		}
	}
	rep := ex.Report()
	g.linef("%s: err=%v makespan=%v gpuWh=%v cpuWh=%v cost=%v tasks=%d retries=%d toolCalls=%d open=%d spans=%x", label,
		ex.Err(), rep.MakespanS, rep.GPUEnergyWh, rep.CPUEnergyWh, rep.CostUSD, rep.TasksCompleted, ex.Retries(),
		ex.ToolCalls(), rep.Tracer.OpenCount(), sha256.Sum256([]byte(telemetry.SpansCSV(rep.Tracer))))
}

// stepUntil advances the simulation one event at a time until cond holds.
func stepUntil(t *testing.T, se *sim.Engine, what string, cond func() bool) {
	t.Helper()
	for !cond() {
		if !se.Step() {
			t.Fatalf("simulation drained before %s", what)
		}
	}
}

// hogCPUs takes every free core, VM by VM.
func hogCPUs(t *testing.T, cl *cluster.Cluster) []*cluster.CPUAlloc {
	t.Helper()
	var hogs []*cluster.CPUAlloc
	for cl.MaxFreeCPUCores() > 0 {
		a, err := cl.AllocCPUs(cl.MaxFreeCPUCores())
		if err != nil {
			t.Fatal(err)
		}
		hogs = append(hogs, a)
	}
	return hogs
}

// staleCPUGrant destroys a worker while its CPU request is still queued at
// the cluster manager, lets the stage reuse the same worker object off the
// runtime's pool, and then frees capacity: the first grant finds a worker of
// a later generation and must be released, the second adopted.
func staleCPUGrant(t *testing.T, g *grantLog) {
	se, cl, rt := newRuntime(t)
	hogs := hogCPUs(t, cl)
	ex, err := rt.Submit(paperJob(workflow.MinCost), SubmitOptions{Pinned: paperPins(), RelaxFloor: true})
	if err != nil {
		t.Fatal(err)
	}
	capName := string(agents.CapFrameExtraction)
	stepUntil(t, se, "frame extraction spawned workers", func() bool {
		return rt.mgr.PendingCPURequests() > 0
	})
	se.RunUntil(se.Now()) // the deferred drains find no capacity
	st := ex.stageNamed(capName)
	g.workers("cpu: queued", st, rt)
	w := st.workers[0]
	w.destroy()
	g.workers("cpu: destroyed w0", st, rt)
	if rt.workerPool[len(rt.workerPool)-1] != w {
		t.Fatal("destroyed worker is not on top of the runtime's pool")
	}
	st.pump()
	if st.workers[len(st.workers)-1] != w {
		t.Fatal("respawn did not reuse the destroyed worker")
	}
	g.workers("cpu: respawned", st, rt)
	for i, h := range hogs {
		h.Release()
		g.workers(fmt.Sprintf("cpu: hog %d released", i), st, rt)
	}
	if !w.ready || w.cpuAlloc == nil || w.cpuAlloc.Released() {
		t.Fatalf("reused worker did not adopt its second grant (ready=%v alloc=%v)", w.ready, w.cpuAlloc)
	}
	se.Run()
	g.execution("cpu", ex)
	g.cluster(cl)
}

// staleGPUThenCPUGrant does the same to a hybrid worker (one GPU, then four
// cores): once while its GPU request is queued, and once more while it holds
// the GPU and its CPU request is queued.
func staleGPUThenCPUGrant(t *testing.T, g *grantLog) {
	se, cl, rt := newRuntime(t)
	pins := paperPins()
	capName := string(agents.CapSpeechToText)
	pins[capName] = optimizer.Pin{
		Implementation: agents.ImplWhisper,
		Config:         profiles.ResourceConfig{GPUs: 1, GPUType: hardware.GPUA100, CPUCores: 4},
		Parallelism:    1,
	}
	ex, err := rt.Submit(paperJob(workflow.MinCost), SubmitOptions{Pinned: pins, RelaxFloor: true})
	if err != nil {
		t.Fatal(err)
	}
	stepUntil(t, se, "speech-to-text spawned its worker", func() bool {
		return rt.mgr.PendingGPURequests() > 0
	})
	// The request is queued and its drain deferred: take the free GPUs first.
	gpuHog, err := cl.AllocGPUs(cl.FreeGPUs(hardware.GPUA100), hardware.GPUA100)
	if err != nil {
		t.Fatal(err)
	}
	se.RunUntil(se.Now())
	st := ex.stageNamed(capName)
	g.workers("gpu: queued", st, rt)
	w := st.workers[0]
	w.destroy()
	st.pump()
	if st.workers[len(st.workers)-1] != w {
		t.Fatal("respawn did not reuse the destroyed worker")
	}
	g.workers("gpu: respawned", st, rt)
	cpuHogs := hogCPUs(t, cl)
	gpuHog.Release()
	g.workers("gpu: hog released", st, rt)
	if w.gpuAlloc == nil || w.gpuAlloc.Released() || w.ready {
		t.Fatalf("reused worker should hold its GPU and wait for cores (gpu=%v ready=%v)", w.gpuAlloc, w.ready)
	}
	se.RunUntil(se.Now())

	// Second round: the worker holds a GPU, its CPU request is queued.
	w.destroy()
	g.workers("gpu+cpu: destroyed holding the GPU", st, rt)
	st.pump()
	se.RunUntil(se.Now())
	g.workers("gpu+cpu: respawned", st, rt)
	for i, h := range cpuHogs {
		h.Release()
		g.workers(fmt.Sprintf("gpu+cpu: hog %d released", i), st, rt)
	}
	if !w.ready || w.cpuAlloc == nil || w.cpuAlloc.Released() || w.gpuAlloc == nil || w.gpuAlloc.Released() {
		t.Fatalf("reused hybrid worker did not adopt its grants (ready=%v)", w.ready)
	}
	se.Run()
	g.execution("gpu+cpu", ex)
	g.cluster(cl)
}

// grantsUnderFaultsAndChurn replays a seeded fault trace (worker loss =
// cluster.FailAlloc, call errors, stalls, engine crashes) and a seeded churn
// trace (spot VMs joining and being evicted, which preempts workers mid-acquire
// and sends an engine through rebuild, i.e. through the EngineHandle grantee)
// over a staggered job mix with recovery and reconfiguration on.
func grantsUnderFaultsAndChurn(t *testing.T, g *grantLog) {
	se := sim.NewEngine()
	cl := cluster.New(se, hardware.DefaultCatalog())
	cl.AddVM("vm0", hardware.NDv4SKUName, false)
	rt, err := New(Config{
		Engine: se, Cluster: cl, Library: agents.DefaultLibrary(),
		Reconfig: &ReconfigConfig{}, Recovery: &FaultPolicy{Seed: 5, StageTimeoutS: 120, MaxAttempts: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two of vm0's GPUs stay taken, so a fresh spot VM has the most free GPUs
	// and the engines of the first job land on it.
	if _, err := cl.AllocGPUs(2, hardware.GPUA100); err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(se, rt, 4)

	churn, err := workload.ChurnTrace(hardware.NDv4SKUName, 0.08, 45, 240, 9)
	if err != nil {
		t.Fatal(err)
	}
	faults, err := workload.FaultTrace(workload.FaultSpec{
		EngineCrashRate: 0.01, WorkerLossRate: 0.15, StageTimeoutRate: 0.02, CallErrorRate: 0.05,
		StallS: 200, CrashReloadS: 3, HorizonS: 240, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	engineNames := []string{"nvlm-d-72b", "nvlm-embed", "llama-3.1-8b", "nvlm-d-72b-qa"}
	engineGPUs := func() (string, map[string]int) {
		var b strings.Builder
		sizes := map[string]int{}
		for _, name := range engineNames {
			if h, ok := rt.mgr.Engine(name); ok {
				fmt.Fprintf(&b, " %s=%d", name, h.GPUs())
				sizes[name] = h.GPUs()
			}
		}
		return b.String(), sizes
	}
	rebuilds := 0
	for _, ev := range churn {
		ev := ev
		se.After(sim.Duration(ev.AtS), func() {
			switch ev.Kind {
			case workload.FleetAddVM:
				cl.AddVM(ev.VM, ev.SKU, ev.Spot)
				g.linef("t=%v add %s: gen=%d", ev.AtS, ev.VM, cl.Gen())
			case workload.FleetPreemptVM:
				before, sizes := engineGPUs()
				cl.PreemptVM(ev.VM)
				g.linef("t=%v preempt %s: gen=%d pendingGPU=%d pendingCPU=%d engines%s", ev.AtS, ev.VM,
					cl.Gen(), rt.mgr.PendingGPURequests(), rt.mgr.PendingCPURequests(), before)
				// An engine that lost its VM re-requests its minimum GPUs after
				// the reload delay; once that request is granted the engine's
				// size is what shows the rebuild.
				se.After(clustermgr.EngineReloadDelayS, func() {
					se.Defer(func() {
						after, now := engineGPUs()
						for name, n := range sizes {
							if m, ok := now[name]; ok && m != n {
								rebuilds++
							}
						}
						g.linef("t=%v after reload delay: gen=%d pendingGPU=%d engines%s", se.Now().Seconds(), cl.Gen(),
							rt.mgr.PendingGPURequests(), after)
					})
				})
			}
		})
	}
	for _, ev := range faults {
		ev := ev
		se.After(sim.Duration(ev.AtS), func() {
			landed := s.Inject(ev)
			g.linef("t=%v %s pick=%v landed=%v gen=%d", ev.AtS, ev.Kind, ev.Pick, landed, cl.Gen())
		})
	}
	jobs := []workflow.Job{
		wideVideoJob(), schedVideoJob(), schedNewsfeedJob(),
		workload.DocQAJob(3, 800, workflow.MinCost), wideVideoJob(), workload.VideoJob(2, 4, 30, 24, workflow.MinCost),
		schedNewsfeedJob(), wideVideoJob(),
	}
	var handles []*Handle
	for i, job := range jobs {
		i, job := i, job
		se.After(sim.Duration(churn[0].AtS+1+float64(12*i)), func() {
			h, err := s.Submit(fmt.Sprintf("tenant-%d", i%3), job, SubmitOptions{RelaxFloor: true, KeepEngines: true})
			if err != nil {
				g.linef("job %d refused: %v", i, err)
				return
			}
			handles = append(handles, h)
		})
	}
	se.Run()
	for i, h := range handles {
		if !h.Status().Terminal() {
			t.Fatalf("job %d stranded in %v", i, h.Status())
		}
		g.linef("job %d: %v err=%v", i, h.Status(), h.Err())
		if ex := h.Execution(); ex != nil {
			g.execution(fmt.Sprintf("job %d", i), ex)
		}
	}
	g.linef("stats: %s", goldenStats(s.Stats()))
	g.cluster(cl)
	if rebuilds == 0 {
		t.Fatal("no preemption changed an engine's size; the engine-rebuild grantee is not covered")
	}
}

// TestGrantsGolden pins the grant protocol's observable behaviour — which
// grant is released as stale and which adopted, allocation IDs, cluster.Gen and
// every telemetry series — to testdata/grants.golden.
func TestGrantsGolden(t *testing.T) {
	g := &grantLog{t: t}
	for _, sc := range []struct {
		name string
		run  func(*testing.T, *grantLog)
	}{
		{"stale CPU grant", staleCPUGrant},
		{"stale GPU-then-CPU grant", staleGPUThenCPUGrant},
		{"faults and churn", grantsUnderFaultsAndChurn},
	} {
		g.linef("== %s", sc.name)
		sc.run(t, g)
	}
	const path = "testdata/grants.golden"
	if *updateGrants {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, g.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.SplitAfter(g.String(), "\n"), strings.SplitAfter(string(want), "\n")
	for i := range max(len(gl), len(wl)) {
		if i >= len(gl) || i >= len(wl) || gl[i] != wl[i] {
			got, exp := "<missing>", "<missing>"
			if i < len(gl) {
				got = gl[i]
			}
			if i < len(wl) {
				exp = wl[i]
			}
			t.Fatalf("line %d differs from %s\n got: %s\nwant: %s", i+1, path, got, exp)
		}
	}
}
