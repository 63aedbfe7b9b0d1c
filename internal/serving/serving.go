// Package serving is the evaluation harness for the serving stack: seven
// scenarios, each replaying one identical captured input through two arms
// and comparing (CGReplay's method), on two shared runners.
//
// Sim-time scenarios (sim.go: one shard stack per arm, arrivals and trace
// events on the engine, every number deterministic and gated in CI):
//   - faults: a seeded fault trace, failure recovery off vs on, goodput.
//   - reconfig: spot VMs arriving mid-run, mid-flight re-planning off vs on,
//     completion time and energy.
//   - overload: a 4× burst, FIFO vs SLO-tiered admission, goodput in target.
//
// Wall-clock scenarios over the real HTTP surface (http.go: httptest
// transport, concurrent clients):
//   - serving: the shared runtime pool vs a throwaway testbed per request,
//     throughput and latency percentiles.
//   - retention: tiered telemetry retention vs an unbounded pool, footprint.
//
// And two with bodies of their own on the shared stack and trace builders:
//   - admission: a submission burst on one shard, plan search inline on the
//     loop vs the off-loop worker pool, plans/sec.
//   - cluster: the consistent-hash router tier at one node vs three (sim-time
//     throughput), plus a membership-churn arm that must strand nothing.
package serving

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strings"

	"repro/internal/agents"
	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/sim"
	"repro/internal/workflow"
	"repro/internal/workload"
)

// Options shapes the serving scenario's replay.
type Options struct {
	// Rate and HorizonS parameterize the Poisson trace over
	// workload.ServiceMix (jobs/s of simulated arrival time; the replay
	// itself submits as fast as clients allow).
	Rate     float64
	HorizonS float64
	// Clients is the number of concurrent HTTP submitters.
	Clients int
}

// DefaultOptions is the benchmark configuration: ~150 mixed jobs over the
// eight-tenant service mix, eight clients.
func DefaultOptions() Options {
	return Options{Rate: 0.25, HorizonS: 600, Clients: 8}
}

const (
	// servingSeed fixes the trace; servingTrials replays it this many times
	// per arm, keeping each arm's best-throughput trial. Wall-clock noise on
	// a busy host is one-sided — slowdowns, never speedups — so best-of-N is
	// the stable estimator of what each architecture can actually sustain.
	servingSeed   = 11
	servingTrials = 3
)

// sharedPool is the pool every HTTP scenario serves from: the service mix's
// eight tenants hash across two shards.
var sharedPool = api.PoolConfig{Shards: 2, VMsPerShard: 2, MaxConcurrentPerShard: 4}

// ModeResult is the measurement for one serving architecture.
type ModeResult struct {
	Mode         string
	Jobs         int
	Completed    int
	Failed       int
	WallS        float64
	Throughput   float64 // completed jobs per wall-clock second
	P50LatencyMs float64
	P95LatencyMs float64
}

// Result compares shared-runtime serving against per-request testbeds on the
// same trace.
type Result struct {
	Shared     ModeResult
	PerRequest ModeResult
	// ThroughputGainX = Shared.Throughput / PerRequest.Throughput — the
	// serving-path analogue of the paper's multiplexing gain.
	ThroughputGainX float64
}

// Run replays the trace through both architectures.
func Run(opts Options) (*Result, error) {
	if opts.Clients <= 0 {
		return nil, fmt.Errorf("serving: %d clients", opts.Clients)
	}
	trace, err := buildTrace(opts)
	if err != nil {
		return nil, err
	}
	trial := func(mode string, handler http.Handler) ModeResult {
		rep := replayHTTP(handler, trace, opts.Clients)
		res := ModeResult{Mode: mode, Jobs: len(trace), Completed: rep.completed, Failed: rep.failed,
			WallS: rep.wallS, Throughput: rep.throughput()}
		if len(rep.latenciesMs) > 0 {
			res.P50LatencyMs, res.P95LatencyMs = percentile(rep.latenciesMs, 0.50), percentile(rep.latenciesMs, 0.95)
		}
		return res
	}
	throughput := func(r ModeResult) float64 { return r.Throughput }
	res := &Result{}
	if res.Shared, err = bestOf(servingTrials, func() (ModeResult, error) {
		server, err := api.NewServer(sharedPool)
		if err != nil {
			return ModeResult{}, err
		}
		defer server.Close()
		return trial("shared", server), nil
	}, throughput); err != nil {
		return nil, err
	}
	// The per-request baseline is not a daemon mode: it exists only here.
	if res.PerRequest, err = bestOf(servingTrials, func() (ModeResult, error) {
		return trial("per-request", http.HandlerFunc(perRequestHandler)), nil
	}, throughput); err != nil {
		return nil, err
	}
	if res.PerRequest.Throughput > 0 {
		res.ThroughputGainX = res.Shared.Throughput / res.PerRequest.Throughput
	}
	return res, nil
}

// bestOf runs a wall-clock arm trials times and keeps the highest-scoring
// result (the first when every score ties, so an all-failed arm still reports
// its counts instead of a zero value).
func bestOf[T any](trials int, run func() (T, error), score func(T) float64) (best T, err error) {
	for i := 0; i < trials; i++ {
		// Settle the heap so one trial's garbage is not collected on the
		// next one's clock.
		runtime.GC()
		res, err := run()
		if err != nil {
			return best, err
		}
		if i == 0 || score(res) > score(best) {
			best = res
		}
	}
	return best, nil
}

// buildTrace renders the service-mix trace to ready-to-send request bodies.
func buildTrace(opts Options) ([][]byte, error) {
	arrivals, err := workload.PoissonTrace(workload.ServiceMix(), opts.Rate, opts.HorizonS, servingSeed)
	if err != nil {
		return nil, err
	}
	if len(arrivals) == 0 {
		return nil, fmt.Errorf("serving: empty trace (rate %v over %v s)", opts.Rate, opts.HorizonS)
	}
	out := make([][]byte, 0, len(arrivals))
	for _, arr := range arrivals {
		body, err := json.Marshal(requestFrom(arr.Tenant, arr.Job))
		if err != nil {
			return nil, err
		}
		out = append(out, body)
	}
	return out, nil
}

// requestFrom maps a generated workload job onto the HTTP request schema.
func requestFrom(tenant string, job workflow.Job) api.JobRequest {
	req := api.JobRequest{
		Tenant:      tenant,
		Description: job.Description,
		Constraint:  strings.ToUpper(job.Constraint.String()),
		MinQuality:  job.MinQuality,
		Tasks:       job.Tasks,
		Wait:        true,
	}
	for _, in := range job.Inputs {
		req.Inputs = append(req.Inputs, api.InputRequest{Name: in.Name, Kind: string(in.Kind), Attrs: in.Attrs})
	}
	return req
}

// newStack provisions what one runtime shard runs on: a cluster of vms
// on-demand ND96amsr_A100_v4 VMs and a runtime built from cfg over the default
// agent library, on cfg's engine or a fresh one.
func newStack(vms int, cfg core.Config) (*sim.Engine, *cluster.Cluster, *core.Runtime, error) {
	if cfg.Engine == nil {
		cfg.Engine = sim.NewEngine()
	}
	cl := cluster.New(cfg.Engine, hardware.DefaultCatalog())
	for v := 0; v < vms; v++ {
		cl.AddVM(fmt.Sprintf("vm%d", v), hardware.NDv4SKUName, false)
	}
	cfg.Cluster, cfg.Library = cl, agents.DefaultLibrary()
	rt, err := core.New(cfg)
	return cfg.Engine, cl, rt, err
}

// perRequestHandler is the pre-daemon baseline the shared pool is measured
// against: every POST provisions a throwaway two-VM testbed (engine, cluster,
// runtime), runs the one job to completion on the handler goroutine and
// answers with the finished envelope, so nothing — engines, caches, worker
// pools — is shared between requests.
func perRequestHandler(w http.ResponseWriter, r *http.Request) {
	st := api.JobStatusResponse{Shard: -1, Status: "failed"}
	reply := func(code int, err error) {
		if err != nil {
			st.Error, st.ErrorCode = err.Error(), string(core.ErrorCodeOf(err))
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(st)
	}
	var req api.JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		reply(http.StatusBadRequest, err)
		return
	}
	job, err := req.ToJob()
	if err != nil {
		reply(http.StatusBadRequest, err)
		return
	}
	se, _, rt, err := newStack(2, core.Config{})
	if err != nil {
		reply(http.StatusInternalServerError, err)
		return
	}
	ex, err := rt.Submit(job, core.SubmitOptions{RelaxFloor: true, MaxPaths: req.MaxPaths})
	if err == nil {
		se.Run()
		err = ex.Err()
	}
	st.Tenant, st.FinishedSimS = req.Tenant, se.Now().Seconds()
	if err != nil {
		reply(http.StatusUnprocessableEntity, err)
		return
	}
	rep := ex.Report()
	st.Status = "done"
	st.Result = &api.JobResponse{
		Name: rep.Name, MakespanS: rep.MakespanS, GPUEnergyWh: rep.GPUEnergyWh, CPUEnergyWh: rep.CPUEnergyWh,
		CostUSD: rep.CostUSD, EstCostUSD: ex.Plan().EstCostUSD, MeanGPUUtil: rep.MeanGPUUtil,
		MeanCPUUtil: rep.MeanCPUUtil, Quality: rep.Quality, PlanningOverheadFrac: rep.PlanningOverheadFrac,
		TasksCompleted: rep.TasksCompleted, Decisions: rep.Decisions, Template: ex.Decomposition().Template,
	}
	reply(http.StatusOK, nil)
}

// percentile reads the p-quantile from sorted samples (nearest-rank:
// ceil(p·n)-1, so small sample sets report from the tail, not below it).
func percentile(sorted []float64, p float64) float64 {
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(idx, 0), len(sorted)-1)]
}
