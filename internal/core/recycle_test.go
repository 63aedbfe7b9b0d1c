package core

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
	"weak"

	"repro/internal/hardware"
	"repro/internal/telemetry"
	"repro/internal/workflow"
	"repro/internal/workload"
)

// TestMain runs every test of this binary — this package's and core_test's,
// the api scenarios among them — with released blocks poisoned: whatever still
// reads a block after its owner's Release reads garbage, and trips.
func TestMain(m *testing.M) {
	parkHook = poisonBlock
	os.Exit(m.Run())
}

const poisonInt = 0x5a5a5a5a

// What poisonBlock plants is shared, so that poisoning allocates nothing and
// the allocation budgets hold with it on.
var (
	poisonQueue   = []int32{poisonInt, poisonInt, poisonInt, poisonInt}
	poisonWorkers = []*worker{nil}
)

// poisonBlock scribbles over a parked block's arrays: sentinels in the ints and
// the spans, and stages on which a pump or an enqueue dereferences a nil
// worker. launch clears what it cuts, so only a stale reader sees any of it;
// the head is left as release zeroed it, which is what launch builds on and
// poison enough — every pointer a stale reader would follow is nil.
func poisonBlock(ex *Execution) {
	ints := ex.ints[:cap(ex.ints)]
	for i := range ints {
		ints[i] = poisonInt
	}
	spans := ex.spans[:cap(ex.spans)]
	for i := range spans {
		spans[i] = telemetry.NodeSpan{Node: -1, Start: math.NaN(), End: math.NaN()}
	}
	stages := ex.stages[:cap(ex.stages)]
	for i := range stages {
		stages[i] = stage{cap: "poisoned", tasks: -1, queue: poisonQueue, workers: poisonWorkers, idle: 1, inflight: 1 << 20}
	}
}

// owner stands in for the api's job record: at JobDone it copies out
// everything a poll could ask for — into the log — and releases the handle.
type owner struct {
	name string
	log  *strings.Builder
	rt   *Runtime
	// parked notes, per job, whether Release put a block on the free list.
	parked map[string]bool
	// blocks collects the distinct Execution objects the jobs ran in.
	blocks map[*Execution]bool
}

func (o owner) JobStarted(*Handle)                {}
func (o owner) JobAttempt(*Handle, AttemptRecord) {}

func (o owner) JobDone(h *Handle) {
	fmt.Fprintf(o.log, "%s: %v err=%v queue=%v attempts=%+v\n", o.name, h.Status(), h.Err(), h.QueueDelayS(), h.Attempts())
	if ex := h.Execution(); ex != nil {
		o.blocks[ex] = true
		rep := h.Report()
		fmt.Fprintf(o.log, "  start=%v makespan=%v gpuWh=%v cpuWh=%v cost=%v gpuUtil=%v cpuUtil=%v quality=%v overhead=%v tasks=%d\n",
			rep.StartS, rep.MakespanS, rep.GPUEnergyWh, rep.CPUEnergyWh, rep.CostUSD, rep.MeanGPUUtil, rep.MeanCPUUtil,
			rep.Quality, rep.PlanningOverheadFrac, rep.TasksCompleted)
		fmt.Fprintf(o.log, "  decisions=%v est=%v retries=%d reconfigs=%d toolCalls=%d docs=%d spans=%x\n%s",
			rep.Decisions, ex.Plan().EstCostUSD, ex.Retries(), ex.Reconfigs(), ex.ToolCalls(), ex.Documents().Len(),
			sha256.Sum256([]byte(telemetry.SpansCSV(rep.Tracer))), rep.Timeline(72))
	}
	before := o.rt.ParkedBlocks()
	h.Release()
	o.parked[o.name] = o.rt.ParkedBlocks() > before
	if h.Execution() != nil || h.Report() != nil || h.Attempts() != nil {
		o.log.WriteString("  the handle still leads to its execution after Release\n")
	}
}

// ending is one way a job can end, played on a scheduler of its own over a
// runtime built from cfg plus the features the ending needs: run submits
// through submit (which installs the owner) and drains the engine.
type ending struct {
	name string
	run  func(t *testing.T, cfg Config, submit func(s *Scheduler, name, tenant string, job workflow.Job) *Handle) *Scheduler
	// check judges, on the recycling arm, which jobs' blocks were parked.
	check func(t *testing.T, s *Scheduler, parked map[string]bool, blocks int)
}

var recycleOpts = SubmitOptions{RelaxFloor: true}

func wantParked(t *testing.T, parked map[string]bool, want map[string]bool) {
	t.Helper()
	for name, w := range want {
		if got, ok := parked[name]; !ok || got != w {
			t.Errorf("%s: parked=%v (settled=%v), want %v", name, got, ok, w)
		}
	}
}

func endings() []ending {
	c := workflow.MinCost
	big, small := workload.VideoJob(3, 16, 30, 24, c), workload.DocQAJob(12, 2000, c)
	return []ending{
		{
			// One slot: a 240-node job, then 13-, 15- and 10-node jobs in its
			// block, then the 240 nodes again — nothing grows after the first.
			name: "sizes, one after another",
			run: func(t *testing.T, cfg Config, submit func(*Scheduler, string, string, workflow.Job) *Handle) *Scheduler {
				se, s := schedWith(t, 1, cfg)
				submit(s, "big", "alice", big)
				for i := 0; i < 3; i++ {
					submit(s, fmt.Sprint("small", i), "alice", small)
				}
				submit(s, "newsfeed", "alice", workload.NewsfeedJob("reader", 12, c))
				submit(s, "video", "alice", workload.VideoJob(1, 2, 30, 24, c))
				submit(s, "big again", "alice", big)
				se.Run()
				return s
			},
			check: func(t *testing.T, s *Scheduler, parked map[string]bool, blocks int) {
				wantParked(t, parked, map[string]bool{"big": true, "small0": true, "small1": true, "small2": true,
					"newsfeed": true, "video": true, "big again": true})
				if blocks != 1 || s.rt.ParkedBlocks() != 1 {
					t.Errorf("seven jobs one at a time ran in %d blocks and left %d parked, want 1 and 1", blocks, s.rt.ParkedBlocks())
				}
				if ex := s.rt.execFree[0]; cap(ex.ints) < 4*240 || cap(ex.spans) < 240 {
					t.Errorf("the parked block holds %d ints and %d spans: smaller jobs shrank it", cap(ex.ints), cap(ex.spans))
				}
			},
		},
		{
			// Three slots, small and large jobs interleaved: a small job's block
			// is taken by a large one and grows.
			name: "sizes, side by side",
			run: func(t *testing.T, cfg Config, submit func(*Scheduler, string, string, workflow.Job) *Handle) *Scheduler {
				se, s := schedWith(t, 3, cfg)
				for i := 0; i < 4; i++ {
					submit(s, fmt.Sprint("small", i), "alice", small)
					submit(s, fmt.Sprint("big", i), "bob", big)
					submit(s, fmt.Sprint("video", i), "carol", workload.VideoJob(1, 2, 30, 24, c))
				}
				se.Run()
				return s
			},
			check: func(t *testing.T, s *Scheduler, parked map[string]bool, blocks int) {
				for name, p := range parked {
					if !p {
						t.Errorf("%s completed cleanly and was not parked", name)
					}
				}
				if len(parked) != 12 || blocks > 3 || s.rt.ParkedBlocks() != blocks {
					t.Errorf("%d jobs in %d blocks, %d parked; want 12 in at most 3, all parked", len(parked), blocks, s.rt.ParkedBlocks())
				}
			},
		},
		{
			name: "cancel mid-run",
			run: func(t *testing.T, cfg Config, submit func(*Scheduler, string, string, workflow.Job) *Handle) *Scheduler {
				se, s := schedWith(t, 2, cfg)
				victim := submit(s, "victim", "alice", big)
				submit(s, "bystander", "bob", schedVideoJob())
				queued := submit(s, "queued", "alice", small)
				submit(s, "after", "bob", small)
				if !queued.Cancel() {
					t.Fatal("the queued job was not cancelable")
				}
				se.After(20, func() {
					if !victim.Cancel() {
						t.Error("the running job was not cancelable")
					}
				})
				se.Run()
				return s
			},
			check: func(t *testing.T, _ *Scheduler, parked map[string]bool, _ int) {
				wantParked(t, parked, map[string]bool{"victim": false, "queued": false, "bystander": true, "after": true})
			},
		},
		{
			name: "injected call errors, retried",
			run: func(t *testing.T, cfg Config, submit func(*Scheduler, string, string, workflow.Job) *Handle) *Scheduler {
				cfg.Recovery = &FaultPolicy{Seed: 5}
				se, s := schedWith(t, 2, cfg)
				submit(s, "faulted", "alice", schedVideoJob())
				landed := injectEvery(se, s, workload.FaultEvent{Kind: workload.FaultCallError, Pick: 0.3}, 5, 35, 10)
				se.Run()
				if *landed == 0 || s.Stats().TaskRetries == 0 {
					t.Fatalf("no call error landed and was retried: %+v", s.Stats())
				}
				submit(s, "after", "alice", schedVideoJob())
				se.Run()
				return s
			},
			check: func(t *testing.T, _ *Scheduler, parked map[string]bool, _ int) {
				wantParked(t, parked, map[string]bool{"faulted": false, "after": true})
			},
		},
		{
			name: "stage timeout",
			run: func(t *testing.T, cfg Config, submit func(*Scheduler, string, string, workflow.Job) *Handle) *Scheduler {
				cfg.Recovery = &FaultPolicy{StageTimeoutS: 20, JobDeadlineS: 5000, Seed: 5}
				se, s := schedWith(t, 2, cfg)
				submit(s, "stalled", "alice", schedVideoJob())
				landed := injectEvery(se, s, workload.FaultEvent{Kind: workload.FaultStageTimeout, Pick: 0.5, DurationS: 1000}, 2, 30, 4)
				se.Run()
				if *landed == 0 || s.Stats().StageTimeouts == 0 {
					t.Fatalf("no stall landed and timed out: %+v", s.Stats())
				}
				// A clean job under the same policy: its deadline event was
				// canceled at finish, and that is all that ever named it.
				submit(s, "after", "alice", schedVideoJob())
				se.Run()
				return s
			},
			check: func(t *testing.T, _ *Scheduler, parked map[string]bool, _ int) {
				wantParked(t, parked, map[string]bool{"stalled": false, "after": true})
			},
		},
		{
			name: "spot preemption",
			run: func(t *testing.T, cfg Config, submit func(*Scheduler, string, string, workflow.Job) *Handle) *Scheduler {
				se, s := schedWith(t, 2, cfg)
				submit(s, "preempted", "alice", schedVideoJob())
				landed := injectEvery(se, s, workload.FaultEvent{Kind: workload.FaultWorkerLoss, Pick: 0.5}, 2, 30, 4)
				se.Run()
				if *landed == 0 {
					t.Fatal("no worker loss landed")
				}
				submit(s, "after", "alice", schedVideoJob())
				se.Run()
				return s
			},
			check: func(t *testing.T, _ *Scheduler, parked map[string]bool, _ int) {
				wantParked(t, parked, map[string]bool{"preempted": false, "after": true})
			},
		},
		{
			name: "reconfiguration adopted",
			run: func(t *testing.T, cfg Config, submit func(*Scheduler, string, string, workflow.Job) *Handle) *Scheduler {
				se, cl, s := reconfigTestbed(t, 4, true, cfg)
				submit(s, "rebound", "alice", wideVideoJob())
				se.After(2, func() {
					for i := 1; i <= 3; i++ {
						cl.AddVM(fmt.Sprintf("vm%d", i), hardware.NDv4SKUName, false)
					}
				})
				se.Run()
				if s.Stats().ReconfigWins == 0 {
					t.Fatalf("no re-plan was adopted: %+v", s.Stats())
				}
				submit(s, "after", "alice", wideVideoJob())
				se.Run()
				return s
			},
			check: func(t *testing.T, _ *Scheduler, parked map[string]bool, _ int) {
				wantParked(t, parked, map[string]bool{"rebound": false, "after": true})
			},
		},
		{
			name: "SLO-degraded admission",
			run: func(t *testing.T, cfg Config, submit func(*Scheduler, string, string, workflow.Job) *Handle) *Scheduler {
				cfg.SLO = &SLOConfig{TenantTiers: map[string]string{"alice": "bronze"}, HighWatermark: 1.5, LowWatermark: 0.5}
				se, s := schedWith(t, 1, cfg)
				for i := 0; i < 3; i++ {
					submit(s, fmt.Sprint("overload", i), "alice", sloQualityVideoJob())
				}
				se.Run()
				submit(s, "after", "alice", sloQualityVideoJob())
				se.Run()
				return s
			},
			check: func(t *testing.T, s *Scheduler, parked map[string]bool, _ int) {
				kept := 0
				for _, p := range parked {
					if !p {
						kept++
					}
				}
				if n := s.Stats().SLODegradedAdmits; n == 0 || kept != n {
					t.Errorf("%d jobs were admitted degraded and %d blocks were kept from the free list", n, kept)
				}
				wantParked(t, parked, map[string]bool{"after": true})
			},
		},
	}
}

// TestRecycledBlocksChangeNothing plays every ending on a recycling runtime
// and on one that never reuses a block (noReuse): what the owner
// copies out at JobDone — status, error, attempts, the report, the decisions,
// a hash of every span, the rendered timeline — and the scheduler's counters
// must be the same bytes. On the recycling arm a clean completion's block is
// parked and every other ending's is not; the reference arm parks nothing.
func TestRecycledBlocksChangeNothing(t *testing.T) {
	for _, e := range endings() {
		t.Run(e.name, func(t *testing.T) {
			play := func(reuse bool) (string, *Scheduler, map[string]bool, int) {
				var log strings.Builder
				parked, blocks := map[string]bool{}, map[*Execution]bool{}
				s := e.run(t, Config{noReuse: !reuse}, func(s *Scheduler, name, tenant string, job workflow.Job) *Handle {
					h, err := s.Submit(tenant, job, recycleOpts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					h.Observe(owner{name: name, log: &log, rt: s.rt, parked: parked, blocks: blocks})
					return h
				})
				st := s.Stats()
				// The reuse counters count the recycling itself: they differ
				// between the arms by definition.
				logged := st
				logged.KeyInternHits, logged.KeyInternMisses, logged.ScratchPoolHits, logged.ScratchPoolMisses = 0, 0, 0, 0
				fmt.Fprintf(&log, "stats: %+v tenants: %+v\n", logged, s.SLOTenants())
				if st.Running != 0 || st.Queued != 0 {
					t.Fatalf("the scheduler did not drain: %+v", st)
				}
				return log.String(), s, parked, len(blocks)
			}
			want, ref, refParked, _ := play(false)
			got, s, parked, blocks := play(true)
			if got != want {
				t.Fatalf("recycling blocks changed what the jobs computed:\n%s\n--- without reuse ---\n%s", got, want)
			}
			if strings.Contains(got, "after Release") || strings.Contains(got, "poison") {
				t.Fatalf("a released execution was read:\n%s", got)
			}
			if ref.rt.ParkedBlocks() != 0 {
				t.Fatalf("the reference runtime parked %d blocks", ref.rt.ParkedBlocks())
			}
			for name, p := range refParked {
				if p {
					t.Errorf("the reference runtime parked %s's block", name)
				}
			}
			e.check(t, s, parked, blocks)
		})
	}
}

// TestReleaseIsDefinedAtEveryPoint: Release before the job is terminal does
// nothing, the first Release after parks a clean job's block once, a second
// does nothing — the block must not be on the free list twice — and a handle
// that was released leads nowhere. An execution nobody releases (a direct
// Runtime.Submit, or a handle whose owner keeps it) stays readable while
// later jobs come and go through the free list.
func TestReleaseIsDefinedAtEveryPoint(t *testing.T) {
	se, s := schedTestbed(t, 1)
	rt := s.rt
	kept, err := s.Submit("alice", schedVideoJob(), recycleOpts)
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Submit("alice", schedVideoJob(), recycleOpts)
	if err != nil {
		t.Fatal(err)
	}
	h.Release() // queued
	started := false
	h.Observe(observerFuncs{started: func(h *Handle) { started = true }})
	stepUntil(t, se, "the second job runs", func() bool { return started && h.Execution() != nil && h.Execution().ToolCalls() > 0 })
	h.Release() // running
	if h.Execution() == nil || h.Status() != JobRunning || rt.ParkedBlocks() != 0 {
		t.Fatalf("Release on a running job: execution %v, status %v, %d parked", h.Execution(), h.Status(), rt.ParkedBlocks())
	}
	se.Run()
	if kept.Report() == nil || h.Report() == nil {
		t.Fatal("a finished, unreleased handle has no report")
	}
	keptBefore := fmt.Sprintf("%+v\n%s", *kept.Report(), kept.Report().Timeline(72))
	block := h.Execution()
	h.Release()
	if h.Execution() != nil || h.Report() != nil || h.Attempts() != nil {
		t.Fatal("a released handle still leads to its execution")
	}
	h.Release()
	if rt.ParkedBlocks() != 1 || rt.execFree[0] != block {
		t.Fatalf("%d blocks parked after two Releases of one clean job, want that job's one", rt.ParkedBlocks())
	}

	// A direct submission takes the parked block; nobody releases it.
	direct, err := rt.Submit(schedNewsfeedJob(), recycleOpts)
	if err != nil {
		t.Fatal(err)
	}
	if direct != block || rt.ParkedBlocks() != 0 {
		t.Fatal("the next launch did not take the parked block")
	}
	se.Run()
	directBefore := fmt.Sprintf("%+v\n%s", *direct.Report(), direct.Report().Timeline(72))

	// A canceled job's handle is released and its block is not parked.
	canceled, err := s.Submit("alice", schedVideoJob(), recycleOpts)
	if err != nil {
		t.Fatal(err)
	}
	stepUntil(t, se, "the canceled-to-be job runs", func() bool { return canceled.Status() == JobRunning })
	canceled.Cancel()
	canceled.Release()
	if canceled.Execution() != nil || rt.ParkedBlocks() != 0 {
		t.Fatalf("a canceled job's Release parked %d blocks", rt.ParkedBlocks())
	}

	// Later jobs come and go through the free list; the two executions nobody
	// released read as they did.
	for i := 0; i < 5; i++ {
		later, err := s.Submit("alice", schedVideoJob(), recycleOpts)
		if err != nil {
			t.Fatal(err)
		}
		later.Observe(observerFuncs{done: (*Handle).Release})
		se.Run()
	}
	if rt.ParkedBlocks() != 1 {
		t.Fatalf("%d blocks parked after five released jobs one at a time, want 1", rt.ParkedBlocks())
	}
	if got := fmt.Sprintf("%+v\n%s", *kept.Report(), kept.Report().Timeline(72)); got != keptBefore {
		t.Fatalf("an unreleased handle's report changed:\n%s\n--- was ---\n%s", got, keptBefore)
	}
	if got := fmt.Sprintf("%+v\n%s", *direct.Report(), direct.Report().Timeline(72)); got != directBefore {
		t.Fatalf("a direct submission's report changed:\n%s\n--- was ---\n%s", got, directBefore)
	}
}

// TestParkedBlockKeepsNothingOfItsJob: a block on the free list must not keep
// the job it last ran alive — its graph, decomposition, plan and inputs are
// collectable while the block is parked. The job is launched on a plan and a
// decomposition of its own, so the runtime's caches do not hold them either.
func TestParkedBlockKeepsNothingOfItsJob(t *testing.T) {
	se, _, rt := newRuntime(t)
	var collected map[string]func() bool
	func() {
		job := workload.VideoJob(1, 4, 30, 24, workflow.MinCost)
		job.Inputs = append([]workflow.Input(nil), job.Inputs...)
		opts := SubmitOptions{RelaxFloor: true, KeepEngines: true}
		decomp, err := rt.pl.Decompose(job)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := rt.opt.Plan(decomp.Graph, rt.cl.Snapshot(), planOptions(job, opts))
		if err != nil {
			t.Fatal(err)
		}
		ex, err := rt.launch(job, opts, decomp, plan)
		if err != nil {
			t.Fatal(err)
		}
		collected = map[string]func() bool{
			"graph": weakly(decomp.Graph), "decomposition": weakly(decomp), "plan": weakly(plan), "inputs": weakly(&job.Inputs[0]),
		}
		se.Run()
		if !ex.Done() || ex.Err() != nil {
			t.Fatalf("done=%v err=%v", ex.Done(), ex.Err())
		}
		ex.release()
	}()
	if rt.ParkedBlocks() != 1 {
		t.Fatalf("%d blocks parked, want the job's one", rt.ParkedBlocks())
	}
	for name, gone := range collected {
		for deadline := time.Now().Add(5 * time.Second); !gone() && time.Now().Before(deadline); {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		if !gone() {
			t.Errorf("the job's %s is still reachable with its block parked", name)
		}
	}
	runtime.KeepAlive(rt)
}

// weakly returns a func reporting whether the collector has reclaimed *p.
func weakly[T any](p *T) func() bool {
	w := weak.Make(p)
	return func() bool { return w.Value() == nil }
}
