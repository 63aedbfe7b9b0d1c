// Package serving is the load harness for the sharded AIWaaS daemon: it
// replays a mixed-tenant Poisson trace through the real HTTP surface
// (httptest transport, concurrent clients) against both serving
// architectures — the long-lived shared runtime pool and the per-request
// throwaway-testbed baseline — and reports wall-clock throughput, latency
// percentiles and the multiplexing gain of sharing. The per-request baseline
// is not a daemon mode: it exists only here, as perRequestHandler.
package serving

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/agents"
	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/sim"
	"repro/internal/workflow"
	"repro/internal/workload"
)

// Options shapes the replay.
type Options struct {
	// Rate and HorizonS parameterize the Poisson trace (jobs/s of simulated
	// arrival time; the replay itself submits as fast as clients allow).
	Rate     float64
	HorizonS float64
	Seed     int64
	// Mix is the request mix (workload.ServiceMix when zero). Its tenant
	// population should be at least the shard count or hashing leaves
	// shards idle.
	Mix workload.MixSpec
	// Shards / VMsPerShard / MaxConcurrentPerShard size the shared pool.
	Shards                int
	VMsPerShard           int
	MaxConcurrentPerShard int
	// Clients is the number of concurrent HTTP submitters.
	Clients int
	// Trials replays the trace this many times per mode and keeps each
	// mode's best-throughput trial (default 3). Wall-clock noise on a busy
	// host is one-sided — slowdowns, never speedups — so best-of-N is the
	// stable estimator of what each architecture can actually sustain.
	Trials int
}

// DefaultOptions is the benchmark configuration: ~150 mixed jobs over the
// eight-tenant service mix on two shards.
func DefaultOptions() Options {
	return Options{
		Rate:                  0.25,
		HorizonS:              600,
		Seed:                  11,
		Mix:                   workload.ServiceMix(),
		Shards:                2,
		VMsPerShard:           2,
		MaxConcurrentPerShard: 4,
		Clients:               8,
		Trials:                3,
	}
}

// ModeResult is the measurement for one serving architecture.
type ModeResult struct {
	Mode          string
	Jobs          int
	Completed     int
	Failed        int
	WallS         float64
	Throughput    float64 // completed jobs per wall-clock second
	MeanLatencyMs float64
	P50LatencyMs  float64
	P95LatencyMs  float64
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
	trace, err := buildTrace(opts)
	if err != nil {
		return nil, err
	}
	trials := opts.Trials
	if trials <= 0 {
		trials = 1
	}
	best := func(mode string, serve func() (http.Handler, func(), error)) (ModeResult, error) {
		var bestRes ModeResult
		for i := 0; i < trials; i++ {
			res, err := runMode(mode, serve, trace, opts.Clients)
			if err != nil {
				return ModeResult{}, err
			}
			// Seed with the first trial so an all-failed run still reports
			// its job and failure counts instead of a zero value.
			if i == 0 || res.Throughput > bestRes.Throughput {
				bestRes = res
			}
		}
		return bestRes, nil
	}
	shared, err := best("shared", func() (http.Handler, func(), error) {
		server, err := api.NewServer(api.PoolConfig{
			Shards:                opts.Shards,
			VMsPerShard:           opts.VMsPerShard,
			MaxConcurrentPerShard: opts.MaxConcurrentPerShard,
		})
		if err != nil {
			return nil, nil, err
		}
		return server, server.Close, nil
	})
	if err != nil {
		return nil, err
	}
	perReq, err := best("per-request", func() (http.Handler, func(), error) {
		return http.HandlerFunc(perRequestHandler), func() {}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Shared: shared, PerRequest: perReq}
	if perReq.Throughput > 0 {
		res.ThroughputGainX = shared.Throughput / perReq.Throughput
	}
	return res, nil
}

// buildTrace renders the workload trace to ready-to-send request bodies.
func buildTrace(opts Options) ([][]byte, error) {
	mix := opts.Mix
	if len(mix.Tenants) == 0 {
		mix = workload.ServiceMix()
	}
	arrivals, err := workload.PoissonTrace(mix, opts.Rate, opts.HorizonS, opts.Seed)
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
		req.Inputs = append(req.Inputs, api.InputRequest{
			Name:  in.Name,
			Kind:  string(in.Kind),
			Attrs: in.Attrs,
		})
	}
	return req
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
	se := sim.NewEngine()
	if core.DisableAllocReuse {
		se.DisableEventSlab()
	}
	cl := cluster.New(se, hardware.DefaultCatalog())
	cl.AddVM("vm0", hardware.NDv4SKUName, false)
	cl.AddVM("vm1", hardware.NDv4SKUName, false)
	rt, err := core.New(core.Config{Engine: se, Cluster: cl, Library: agents.DefaultLibrary()})
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

// runMode replays the trace against one architecture with opts.Clients
// concurrent submitters and measures the wall-clock service curve. serve
// builds the architecture's handler and its teardown.
func runMode(mode string, serve func() (http.Handler, func(), error), trace [][]byte, clients int) (ModeResult, error) {
	// Settle the heap so one mode's garbage is not collected on the other
	// mode's clock.
	runtime.GC()
	handler, closeHandler, err := serve()
	if err != nil {
		return ModeResult{}, err
	}
	srv := httptest.NewServer(handler)
	defer func() {
		srv.Close()
		closeHandler()
	}()
	if clients <= 0 {
		clients = 8
	}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        clients,
		MaxIdleConnsPerHost: clients,
	}}
	defer client.CloseIdleConnections()

	work := make(chan []byte)
	latencies := make([]float64, 0, len(trace))
	var mu sync.Mutex
	var completed, failed int
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for body := range work {
				t0 := time.Now()
				resp, err := client.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
				latMs := float64(time.Since(t0).Microseconds()) / 1000
				ok := false
				if err == nil {
					// wait:true means a 200 carries the finished result; like
					// any load generator, drain the body without decoding it.
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					ok = resp.StatusCode == http.StatusOK
				}
				mu.Lock()
				if ok {
					completed++
					latencies = append(latencies, latMs)
				} else {
					failed++
				}
				mu.Unlock()
			}
		}()
	}
	for _, body := range trace {
		work <- body
	}
	close(work)
	wg.Wait()
	wallS := time.Since(start).Seconds()

	res := ModeResult{
		Mode:      mode,
		Jobs:      len(trace),
		Completed: completed,
		Failed:    failed,
		WallS:     wallS,
	}
	if wallS > 0 {
		res.Throughput = float64(completed) / wallS
	}
	if len(latencies) > 0 {
		sort.Float64s(latencies)
		sum := 0.0
		for _, l := range latencies {
			sum += l
		}
		res.MeanLatencyMs = sum / float64(len(latencies))
		res.P50LatencyMs = percentile(latencies, 0.50)
		res.P95LatencyMs = percentile(latencies, 0.95)
	}
	return res, nil
}

// percentile reads the p-quantile from sorted samples (nearest-rank:
// ceil(p·n)-1, so small sample sets report from the tail, not below it).
func percentile(sorted []float64, p float64) float64 {
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// String renders the comparison.
func (r *Result) String() string {
	var b strings.Builder
	b.WriteString("Serving architectures on the mixed-tenant trace (wall clock, HTTP surface)\n")
	fmt.Fprintf(&b, "%-12s %6s %6s %6s %10s %12s %10s %10s\n",
		"mode", "jobs", "done", "fail", "wall(s)", "jobs/s", "p50(ms)", "p95(ms)")
	for _, m := range []ModeResult{r.Shared, r.PerRequest} {
		fmt.Fprintf(&b, "%-12s %6d %6d %6d %10.2f %12.1f %10.2f %10.2f\n",
			m.Mode, m.Jobs, m.Completed, m.Failed, m.WallS, m.Throughput,
			m.P50LatencyMs, m.P95LatencyMs)
	}
	fmt.Fprintf(&b, "Shared-runtime throughput gain: %.2fx\n", r.ThroughputGainX)
	return b.String()
}
