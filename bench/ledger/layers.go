package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"time"

	"repro/internal/agents"
	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/hardware"
	"repro/internal/llmsim"
	"repro/internal/optimizer"
	"repro/internal/planner"
	"repro/internal/profiles"
	"repro/internal/report"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workflow"
)

const (
	// tracedJobs is how many jobs of a workload's trace the traced pass
	// covers (warm-ups excluded, as in the measured run).
	tracedJobs = 2000
	// stagedSimCap rebuilds the staged shard before its sim clock can reach
	// the range where the seed's llmsim livelock was observed; the staged
	// shard runs jobs one at a time, so its clock advances faster per job
	// than a serving shard's.
	stagedSimCap = 4096
)

// layers is the traced pass's result: span file content plus the counts that
// spans do not carry.
type layers struct {
	spans []span
	// allocs and n by stage, for the allocs-per-call metrics.
	allocs struct {
		api, router, core, decompose, plan uint64
	}
	jobs      int       // traced jobs
	nodes     int       // DAG nodes over the traced jobs
	respBytes int       // api.request response bytes over the traced jobs
	builds    []float64 // api.NewServer seconds, one per traced epoch
	// overhead is, per traced job, its wall time traced over its wall time on
	// an untraced twin server.
	overhead []float64
	// factor scales the pass's measured times to reference speed: the median
	// of three calibration readings per traced epoch.
	factor float64
	micro  map[string]float64
}

// stagedShard is one runtime shard built exactly as api's newShard builds it
// (engine, two-VM cluster, runtime, scheduler), minus the loop goroutine and
// the off-loop plan searchers: the harness drives the engine itself, so
// Scheduler.Submit plus the deferred pump step is admission with the plan
// search inline.
type stagedShard struct {
	eng   *sim.Engine
	cl    *cluster.Cluster
	sched *core.Scheduler
}

func newStagedShard() (*stagedShard, error) {
	se := sim.NewEngine()
	cl := cluster.New(se, hardware.DefaultCatalog())
	for v := 0; v < defaultPool.VMsPerShard; v++ {
		cl.AddVM(fmt.Sprintf("s0-vm%d", v), hardware.NDv4SKUName, false)
	}
	rt, err := core.New(core.Config{Engine: se, Cluster: cl, Library: agents.DefaultLibrary()})
	if err != nil {
		return nil, err
	}
	return &stagedShard{eng: se, cl: cl, sched: core.NewScheduler(se, rt, defaultPool.MaxConcurrentPerShard)}, nil
}

// submitOpts is what the POST handler passes the pool, plus the KeepEngines
// the pool adds in shared mode.
var submitOpts = core.SubmitOptions{RelaxFloor: true, KeepEngines: true}

// run submits one job and runs the engine to idle. With tr set it records
// core.submit (Submit + the pump step that admits and launches) and core.run.
func (sh *stagedShard) run(tr *tracer, id int, tenant string, job workflow.Job) (*core.Handle, error) {
	t0 := tr.begin()
	h, err := sh.sched.Submit(tenant, job, submitOpts)
	if err != nil {
		return nil, err
	}
	sh.eng.Step()
	tr.end(id, spCoreSubmit, t0)
	t0 = tr.begin()
	sh.eng.Run()
	tr.end(id, spCoreRun, t0)
	if h.Status() != core.JobDone {
		return nil, fmt.Errorf("staged job %d: status %v: %v", id, h.Status(), h.Err())
	}
	return h, nil
}

// mallocs reads the process's cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// tracedRun is the state of one traced pass: the tracer and result every
// stage writes to, and the harness-owned planner and optimizer the cold
// probes run on.
type tracedRun struct {
	s   spec
	tr  *tracer
	L   *layers
	pl  *planner.Planner
	opt *optimizer.Optimizer
	// snap is what a fresh shard's scheduler hands the plan search.
	snap cluster.Snapshot
	// One epoch's slice of the trace: warm-up bodies, the timed bodies that
	// are traced, and the trace id of the first of them.
	warm, timed [][]byte
	base        int
}

// tracedPass replays the first n timed jobs of the workload's trace stage by
// stage, one client, recording a span around every call into a layer. Stages
// run back to back over an epoch's jobs (all decodes, then all
// decompositions, …) so each stage's allocations can be counted exactly.
func tracedPass(s spec, seed int64, n int) (*layers, error) {
	fresh, err := newStagedShard()
	if err != nil {
		return nil, err
	}
	lib := agents.DefaultLibrary()
	p := &tracedRun{
		s: s, tr: newTracer(n * 24), L: &layers{}, pl: planner.New(lib),
		opt:  optimizer.New(fresh.cl.Catalog(), lib, fresh.sched.Runtime().Profiles(), hardware.EPYC7V12),
		snap: fresh.cl.Snapshot(),
	}
	sp := newSpeed(64)
	for e := 0; p.L.jobs < n; e++ {
		bodies, err := s.bodies(seed, e)
		if err != nil {
			return nil, err
		}
		p.warm, p.timed, p.base = bodies[:s.warmup], bodies[s.warmup:], p.L.jobs
		if left := n - p.L.jobs; len(p.timed) > left {
			p.timed = p.timed[:left]
		}
		reqs, jobs, err := p.decodeStage()
		if err != nil {
			return nil, err
		}
		for _, stage := range []func() error{
			func() error { return p.coldProbes(jobs) },
			func() error { return p.coreStage(reqs, jobs) },
			func() error { return p.entryStages(e) },
		} {
			sp.sample()
			if err := stage(); err != nil {
				return nil, err
			}
		}
		p.L.jobs += len(p.timed)
	}
	p.L.spans = p.tr.spans
	p.L.factor = sp.factor()
	return p.L, nil
}

// decodeStage records api.decode over the epoch's timed bodies and maps each
// request to its job (the harness's own mapping, untraced).
func (p *tracedRun) decodeStage() ([]api.JobRequest, []workflow.Job, error) {
	reqs := make([]api.JobRequest, len(p.timed))
	jobs := make([]workflow.Job, len(p.timed))
	for i, b := range p.timed {
		t0 := p.tr.begin()
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		err := dec.Decode(&reqs[i])
		p.tr.end(p.base+i, spAPIDecode, t0)
		if err != nil {
			return nil, nil, fmt.Errorf("traced decode: %w", err)
		}
		if jobs[i], err = jobFromRequest(reqs[i]); err != nil {
			return nil, nil, err
		}
	}
	return reqs, jobs, nil
}

// coldProbes records decomposition, graph build + freeze, plan search and
// frontier walk, each on harness-owned instances with no cache in front.
func (p *tracedRun) coldProbes(jobs []workflow.Job) error {
	decomps := make([]*planner.Result, len(jobs))
	m0 := mallocs()
	for i, job := range jobs {
		t0 := p.tr.begin()
		d, err := p.pl.Decompose(job)
		p.tr.end(p.base+i, spPlannerDecompose, t0)
		if err != nil {
			return fmt.Errorf("traced decompose: %w", err)
		}
		decomps[i] = d
	}
	p.L.allocs.decompose += mallocs() - m0
	for i, d := range decomps {
		p.L.nodes += d.Graph.Len()
		t0 := p.tr.begin()
		err := rebuildGraph(d.Graph)
		p.tr.end(p.base+i, spDagBuildFreeze, t0)
		if err != nil {
			return err
		}
	}
	m0 = mallocs()
	for i, job := range jobs {
		t0 := p.tr.begin()
		_, err := p.opt.Plan(decomps[i].Graph, p.snap, optimizer.Options{
			Constraint: job.Constraint, MinQuality: job.MinQuality, RelaxFloor: true,
		})
		p.tr.end(p.base+i, spOptimizerPlan, t0)
		if err != nil {
			return fmt.Errorf("traced plan: %w", err)
		}
	}
	p.L.allocs.plan += mallocs() - m0
	for i, d := range decomps {
		t0 := p.tr.begin()
		err := walkGraph(d.Graph)
		p.tr.end(p.base+i, spDagTracker, t0)
		if err != nil {
			return err
		}
	}
	return nil
}

// warmedShard builds a staged shard and runs the epoch's warm-up through it.
func (p *tracedRun) warmedShard() (*stagedShard, error) {
	sh, err := newStagedShard()
	if err != nil {
		return nil, err
	}
	for _, b := range p.warm {
		var req api.JobRequest
		if err := json.Unmarshal(b, &req); err != nil {
			return nil, err
		}
		job, err := jobFromRequest(req)
		if err != nil {
			return nil, err
		}
		if _, err := sh.run(nil, 0, req.Tenant, job); err != nil {
			return nil, err
		}
	}
	return sh, nil
}

// coreStage records core.submit and core.run on a staged shard warmed like an
// epoch, then report.finalize (on a copy, against the cluster the job ran on)
// and api.encode over the finished handles.
func (p *tracedRun) coreStage(reqs []api.JobRequest, jobs []workflow.Job) error {
	sh, err := p.warmedShard()
	if err != nil {
		return err
	}
	handles := make([]*core.Handle, len(jobs))
	ranOn := make([]*cluster.Cluster, len(jobs))
	m0 := mallocs()
	for i, job := range jobs {
		if sh.eng.Now().Seconds() > stagedSimCap {
			p.L.allocs.core += mallocs() - m0
			if sh, err = p.warmedShard(); err != nil {
				return err
			}
			m0 = mallocs()
		}
		if handles[i], err = sh.run(p.tr, p.base+i, reqs[i].Tenant, job); err != nil {
			return err
		}
		ranOn[i] = sh.cl
	}
	p.L.allocs.core += mallocs() - m0
	var encBuf bytes.Buffer
	for i, h := range handles {
		rep := *h.Report()
		t0 := p.tr.begin()
		err := report.Finalize(&rep, ranOn[i])
		p.tr.end(p.base+i, spReportFinalize, t0)
		if err != nil {
			return fmt.Errorf("traced finalize: %w", err)
		}
		resp := envelope(p.base+i, h)
		encBuf.Reset()
		t0 = p.tr.begin()
		err = json.NewEncoder(&encBuf).Encode(resp)
		p.tr.end(p.base+i, spAPIEncode, t0)
		if err != nil {
			return fmt.Errorf("traced encode: %w", err)
		}
	}
	return nil
}

// entryStages records the nested entry points: the same bodies through a bare
// api.Server, through the router on the routed workload, and over one
// keep-alive loopback connection. The bare server has an untraced twin (first
// or second by epoch parity): the same bodies in the same order drive it into
// the same states, so job by job the two wall times differ by the tracing and
// by noise, and the median ratio over the jobs is trace.overhead_frac.
func (p *tracedRun) entryStages(epoch int) error {
	var traced, untraced entryResult
	for twin := 0; twin < 2; twin++ {
		t0 := time.Now()
		srv, err := api.NewServer(defaultPool)
		if err != nil {
			return err
		}
		p.L.builds = append(p.L.builds, time.Since(t0).Seconds())
		if (twin == 0) == (epoch%2 == 0) {
			traced, err = p.entryStage(p.tr, srv, spAPIRequest, spAPIGet, spAPIStats)
		} else {
			untraced, err = p.entryStage(nil, srv, spAPIRequest, spAPIGet, spAPIStats)
		}
		srv.Close()
		if err != nil {
			return err
		}
	}
	p.L.allocs.api += traced.allocs
	p.L.respBytes += traced.respBytes
	for i := range traced.wall {
		p.L.overhead = append(p.L.overhead, traced.wall[i]/untraced.wall[i])
	}
	if p.s.routed {
		rt, err := router.New(routedConfig)
		if err != nil {
			return err
		}
		res, err := p.entryStage(p.tr, rt, spRouterRequest, spRouterGet, spRouterStats)
		rt.Close()
		if err != nil {
			return err
		}
		p.L.allocs.router += res.allocs
	}
	return p.transportStage()
}

// envelope rebuilds the job envelope the handler would encode for a finished
// staged job, from public accessors.
func envelope(id int, h *core.Handle) api.JobStatusResponse {
	rep, ex := h.Report(), h.Execution()
	return api.JobStatusResponse{
		ID:            fmt.Sprintf("job-%08d", id),
		Tenant:        h.Tenant(),
		Status:        h.Status().String(),
		QueueDelayS:   h.QueueDelayS(),
		SubmittedSimS: rep.StartS - h.QueueDelayS(),
		FinishedSimS:  rep.StartS + rep.MakespanS,
		Result: &api.JobResponse{
			Name:                 rep.Name,
			MakespanS:            rep.MakespanS,
			GPUEnergyWh:          rep.GPUEnergyWh,
			CPUEnergyWh:          rep.CPUEnergyWh,
			CostUSD:              rep.CostUSD,
			EstCostUSD:           ex.Plan().EstCostUSD,
			MeanGPUUtil:          rep.MeanGPUUtil,
			MeanCPUUtil:          rep.MeanCPUUtil,
			Quality:              rep.Quality,
			PlanningOverheadFrac: rep.PlanningOverheadFrac,
			TasksCompleted:       rep.TasksCompleted,
			Decisions:            rep.Decisions,
			Template:             ex.Decomposition().Template,
		},
	}
}

// rebuildGraph copies a frozen graph node by node and edge by edge into a new
// one and freezes it: the dag share of a decomposition.
func rebuildGraph(g *dag.Graph) error {
	c := dag.New()
	for _, n := range g.Nodes() {
		if err := c.AddNode(*n); err != nil {
			return err
		}
	}
	for _, n := range g.Nodes() {
		for _, to := range g.Successors(n.ID) {
			if err := c.AddEdge(n.ID, to); err != nil {
				return err
			}
		}
	}
	return c.Freeze()
}

// walkGraph drives a tracker over the graph from roots to done, the way an
// execution's dispatch loop does.
func walkGraph(g *dag.Graph) error {
	t := dag.NewTracker(g)
	ready := t.AppendReady(nil)
	for len(ready) > 0 {
		id := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		if err := t.Start(id); err != nil {
			return err
		}
		var err error
		if ready, err = t.CompleteAppend(id, ready); err != nil {
			return err
		}
	}
	if !t.Done() {
		return fmt.Errorf("dag walk left %d of %d nodes", g.Len()-t.CompletedCount(), g.Len())
	}
	return nil
}

// entryResult is what entryStage counted over an epoch's timed POST loop.
type entryResult struct {
	wall []float64 // per-job wall seconds

	allocs    uint64
	respBytes int
}

// entryStage sends an epoch through a handler with one client: warm-ups
// untraced, then each timed body as a request span (a job submitted with
// wait:false is polled to done, each poll a get span); a nil tracer runs the
// identical code and records nothing. The read paths follow outside the
// counted loop:
// one GET per finished job and a /v1/stats scrape every statsEvery-th.
func (p *tracedRun) entryStage(tr *tracer, h http.Handler, request, get, stats spanName) (entryResult, error) {
	warm, timed, base := p.warm, p.timed, p.base
	var res entryResult
	c := newClient()
	ctx, cancel := context.WithTimeout(context.Background(), 4*opDeadline)
	defer cancel()
	read := func(tr *tracer, id int, name spanName, target string) ([]byte, error) {
		t0 := tr.begin()
		code, resp := c.do(ctx, h, http.MethodGet, target, nil)
		tr.end(id, name, t0)
		if code != http.StatusOK || ctx.Err() != nil {
			return nil, fmt.Errorf("traced %s: status %d: %s", spanNames[name], code, resp)
		}
		return resp, nil
	}
	submit := func(tr *tracer, id int, body []byte) (string, int, error) {
		t0 := tr.begin()
		code, resp := c.do(ctx, h, http.MethodPost, "/v1/jobs", body)
		tr.end(id, request, t0)
		if code != http.StatusOK && code != http.StatusAccepted {
			return "", 0, fmt.Errorf("traced %s: status %d: %s", spanNames[request], code, resp)
		}
		target, n := "/v1/jobs/"+jobID(resp), len(resp)
		_, err := awaitDone(ctx, resp, func() (int, []byte) {
			t0 := tr.begin()
			code, resp := c.do(ctx, h, http.MethodGet, target, nil)
			tr.end(id, get, t0)
			return code, resp
		})
		return target, n, err
	}
	for _, b := range warm {
		if _, _, err := submit(nil, 0, b); err != nil {
			return res, err
		}
	}
	targets := make([]string, len(timed))
	m0 := mallocs()
	for i, b := range timed {
		t0 := time.Now()
		target, n, err := submit(tr, base+i, b)
		res.wall = append(res.wall, time.Since(t0).Seconds())
		if err != nil {
			return res, err
		}
		targets[i] = target
		res.respBytes += n
	}
	res.allocs = mallocs() - m0
	for i, target := range targets {
		if _, err := read(tr, base+i, get, target); err != nil {
			return res, err
		}
		if (base+i)%statsEvery == 0 {
			if _, err := read(tr, base+i, stats, "/v1/stats"); err != nil {
				return res, err
			}
		}
	}
	return res, nil
}

// transportStage sends the timed bodies over one keep-alive loopback
// connection to an httptest server in front of a fresh api.Server: what the
// kernel and net/http add on top of api.request.
func (p *tracedRun) transportStage() error {
	tr, warm, timed, base := p.tr, p.warm, p.timed, p.base
	srv, err := api.NewServer(defaultPool)
	if err != nil {
		return err
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	hc := &http.Client{Transport: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1}, Timeout: 4 * opDeadline}
	defer hc.CloseIdleConnections()
	poll := newClient()
	ctx, cancel := context.WithTimeout(context.Background(), 4*opDeadline)
	defer cancel()
	post := func(tr *tracer, id int, body []byte) error {
		t0 := tr.begin()
		resp, err := hc.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("traced transport: %w", err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		tr.end(id, spTransportRequest, t0)
		if err != nil || (resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted) {
			return fmt.Errorf("traced transport: status %d, %v", resp.StatusCode, err)
		}
		// A wait:false body returns before the job ends; let it finish
		// (in-process, untraced) so jobs do not pile up behind the connection.
		target := "/v1/jobs/" + jobID(out)
		_, err = awaitDone(ctx, out, func() (int, []byte) { return poll.do(ctx, srv, http.MethodGet, target, nil) })
		return err
	}
	for _, b := range warm {
		if err := post(nil, 0, b); err != nil {
			return err
		}
	}
	for i, b := range timed {
		if err := post(tr, base+i, b); err != nil {
			return err
		}
	}
	return nil
}

// microReadings is how many calibration readings microRuns takes each side.
const microReadings = 7

// microRuns measures the leaf layers that cannot be isolated per job, each
// with a fixed operation count, and reports the median of a few repeats,
// scaled to reference speed by calibration readings either side.
func microRuns() map[string]float64 {
	sp := newSpeed(2 * microReadings)
	for i := 0; i < microReadings; i++ {
		sp.sample()
	}
	out := map[string]float64{}
	out["sim.ns_per_event"] = simNsPerEvent()
	out["llmsim.ns_per_request"] = repeatMedian(5, llmsimNsPerRequest)
	allocNs, snapNs := clusterNs()
	out["cluster.alloc_release_ns"] = allocNs
	out["cluster.snapshot_ns"] = snapNs
	setNs, integralNs := telemetryNs()
	out["telemetry.set_ns"] = setNs
	out["telemetry.integral_ns"] = integralNs
	out["router.ring_lookup_ns"] = repeatMedian(5, ringLookupNs)
	out["profiles.cold_build_ms"] = repeatMedian(3, coldBuildMs)
	for i := 0; i < microReadings; i++ {
		sp.sample()
	}
	for name := range out {
		out[name] *= sp.factor()
	}
	return out
}

func repeatMedian(n int, f func() float64) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

// simNsPerEvent is the steady-state schedule/cancel/fire mix of the repo's
// BenchmarkEngine at depth 1,024: every firing schedules its replacement and
// every fourth also cancels a random pending event and replaces it. It is
// also the host-calibration unit printed with every result.
func simNsPerEvent() float64 {
	const depth, events = 1024, 400000
	return repeatMedian(5, func() float64 {
		rng := rand.New(rand.NewSource(42))
		e := sim.NewEngine()
		e.Reserve(depth + 1)
		ring := make([]*sim.Event, depth)
		fired := 0
		var fire func()
		fire = func() {
			ring[fired%depth] = e.After(sim.Duration(rng.Float64()*2), fire)
			fired++
			if fired%4 == 0 {
				if ev := ring[rng.Intn(depth)]; ev.Cancel() {
					ring[rng.Intn(depth)] = e.After(sim.Duration(rng.Float64()*2), fire)
				}
			}
		}
		for i := range ring {
			ring[i] = e.After(sim.Duration(rng.Float64()*2), fire)
		}
		t0 := time.Now()
		for i := 0; i < events; i++ {
			e.Step()
		}
		return float64(time.Since(t0).Nanoseconds()) / events
	})
}

// llmsimNsPerRequest submits 64-request batches to a fresh 8-GPU NVLM engine
// and runs each to drained.
func llmsimNsPerRequest() float64 {
	const batch, reps = 64, 100
	var total time.Duration
	for r := 0; r < reps; r++ {
		se := sim.NewEngine()
		cl := cluster.New(se, hardware.DefaultCatalog())
		cl.AddVM("vm0", hardware.NDv4SKUName, false)
		alloc, err := cl.AllocGPUs(8, hardware.GPUA100)
		if err != nil {
			return 0
		}
		eng, err := llmsim.NewEngine(se, cl.Catalog(), llmsim.NVLMText(), alloc)
		if err != nil {
			return 0
		}
		reqs := make([]llmsim.Request, batch)
		t0 := time.Now()
		for i := range reqs {
			reqs[i].PromptTokens, reqs[i].OutputTokens = 400+16*i, 60+i
			eng.Submit(&reqs[i])
		}
		se.Run()
		total += time.Since(t0)
	}
	return float64(total.Nanoseconds()) / (batch * reps)
}

// clusterNs times one GPU + one CPU allocate/release pair and one Snapshot on
// a two-VM cluster.
func clusterNs() (allocNs, snapNs float64) {
	const ops = 20000
	se := sim.NewEngine()
	cl := cluster.New(se, hardware.DefaultCatalog())
	cl.AddVM("vm0", hardware.NDv4SKUName, false)
	cl.AddVM("vm1", hardware.NDv4SKUName, false)
	allocNs = repeatMedian(5, func() float64 {
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			g, err := cl.AllocGPUs(1, hardware.GPUA100)
			if err != nil {
				return 0
			}
			c, err := cl.AllocCPUs(4)
			if err != nil {
				return 0
			}
			c.Release()
			g.Release()
		}
		return float64(time.Since(t0).Nanoseconds()) / ops
	})
	snapNs = repeatMedian(5, func() float64 {
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			// Alternate a state change so the snapshot is rebuilt, not
			// served from its generation memo.
			g, err := cl.AllocGPUs(1, hardware.GPUA100)
			if err != nil {
				return 0
			}
			_ = cl.Snapshot()
			g.Release()
		}
		return float64(time.Since(t0).Nanoseconds()) / ops
	})
	return allocNs, snapNs
}

// telemetryNs times StepSeries.Set on a growing series and Integral over
// random windows of a 10k-point series.
func telemetryNs() (setNs, integralNs float64) {
	const points = 10000
	var s *telemetry.StepSeries
	setNs = repeatMedian(5, func() float64 {
		s = telemetry.NewStepSeries(0)
		t0 := time.Now()
		for i := 1; i <= points; i++ {
			s.Set(float64(i), float64(i&7))
		}
		return float64(time.Since(t0).Nanoseconds()) / points
	})
	rng := rand.New(rand.NewSource(42))
	sink := 0.0
	integralNs = repeatMedian(5, func() float64 {
		t0 := time.Now()
		for i := 0; i < points; i++ {
			a := rng.Float64() * points
			sink += s.Integral(a, a+rng.Float64()*(points-a))
		}
		return float64(time.Since(t0).Nanoseconds()) / points
	})
	if sink < 0 {
		panic("telemetry integral of a non-negative series went negative")
	}
	return setNs, integralNs
}

// ringLookupNs times Ring.NodeFor over the routed workload's tenants on the
// routed workload's ring.
func ringLookupNs() float64 {
	const rounds = 200
	ring := router.NewRing(routedConfig.VNodes, routedConfig.Seed)
	for i := 0; i < routedConfig.Nodes; i++ {
		ring.Add("n" + strconv.Itoa(i))
	}
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, t := range routedTenants {
			if _, ok := ring.NodeFor(t); !ok {
				return 0
			}
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(rounds*len(routedTenants))
}

// coldBuildMs times the first core.New against an empty profile registry:
// the library profiling pass every later runtime shares.
func coldBuildMs() float64 {
	se := sim.NewEngine()
	cl := cluster.New(se, hardware.DefaultCatalog())
	cl.AddVM("vm0", hardware.NDv4SKUName, false)
	t0 := time.Now()
	if _, err := core.New(core.Config{
		Engine: se, Cluster: cl, Library: agents.DefaultLibrary(), ProfileRegistry: profiles.NewRegistry(),
	}); err != nil {
		return 0
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}
