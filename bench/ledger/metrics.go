package main

// metricDef declares one ledger metric. BENCHMARK.json is generated from
// these tables (TestContractFile -update), so the contract and the program
// cannot drift apart.
type metricDef struct {
	name, unit string
	// better is "lower" or "higher".
	better string
	// bound is the share of the parent's median by which an end-to-end metric
	// may worsen before the change is a regression; 0 for per-layer metrics.
	bound float64
	// moves names what a per-layer metric should move, or for an end-to-end
	// metric how it is defined.
	moves string
}

// runSeconds is how long one contract run measures (BENCHMARK.json
// run_seconds) and the ledger's default -seconds.
const runSeconds = 25

// endToEnd lists the end-to-end metrics, reported per workload. failed_frac
// is the tenth: it must be 0 at seed, and the contract forbids a metric that
// reads 0, so the contract run carries it as its failed/attempted counts and
// only the ledger's own report names it.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "median over quiet epochs of the time outside the timed phase: input generation, server build, warm-up, stats reads, sample decode, close"},
	{"jobs_per_s", "jobs/s", "higher", 0.15, "median over quiet epochs of timed completed jobs / timed wall time, 2 closed-loop clients"},
	{"latency_p50_us", "us", "lower", 0.20, "client call to terminal response in quiet epochs: median over 8,192-sample chunks of the chunk median"},
	{"latency_p99_us", "us", "lower", 0.25, "median over the same chunks of the chunk p99"},
	{"cpu_us_per_job", "us", "lower", 0.15, "median over quiet epochs of getrusage user+sys over the timed phase / timed jobs"},
	{"allocs_per_job", "count", "lower", 0.02, "runtime.MemStats.Mallocs over the timed phases / timed jobs"},
	{"alloc_bytes_per_job", "B", "lower", 0.02, "runtime.MemStats.TotalAlloc over the timed phases / timed jobs"},
	{"sim_makespan_mean_s", "sim-s", "lower", 0.03, "mean result.makespan_s over the timed jobs: a speed-up that changes plans shows here"},
	{"sim_energy_wh_mean", "Wh", "lower", 0.03, "mean gpu_energy_wh + cpu_energy_wh over the timed jobs: the paper's efficiency axis"},
}

// failedFrac is the ledger-only tenth end-to-end metric.
var failedFrac = metricDef{"failed_frac", "share", "lower", 0, "(non-200 or terminal-failed + watchdog-expired + abandoned) / attempted; any rise is a regression"}

// perLayer lists the per-layer metrics, <module>.<metric>.
var perLayer = []metricDef{
	{"api.request_us", "us", "lower", 0, "jobs_per_s, cpu_us_per_job, latency_p50_us on serve_mixed (~1/4 of CPU), half that share on exec_heavy"},
	{"api.decode_us", "us", "lower", 0, "part of api.self_us: Decoder + DisallowUnknownFields into api.JobRequest"},
	{"api.encode_us", "us", "lower", 0, "part of api.self_us: Encoder of the returned api.JobStatusResponse"},
	{"api.self_us", "us", "lower", 0, "api.request_us - core.submit_us - core.run_us (all of api.request_us when the POST does not wait): mux, validation, registry, loop hand-off, wire"},
	{"api.allocs_per_request", "count", "lower", 0, "allocs_per_job on every workload"},
	{"api.resp_bytes", "B", "lower", 0, "alloc_bytes_per_job and api.encode_us"},
	{"api.get_us", "us", "lower", 0, "routed_poll only: every poll is one of these behind the hop"},
	{"api.stats_us", "us", "lower", 0, "routed_poll only: the stats scrape behind the fan-out"},
	{"api.setup_ms", "ms", "lower", 0, "setup_s: api.NewServer"},
	{"router.request_us", "us", "lower", 0, "every end-to-end metric of routed_poll; 0 elsewhere"},
	{"router.hop_self_us", "us", "lower", 0, "router.request_us - api.request_us on the same body: ring lookup, synthetic request, body copies, registry"},
	{"router.extra_allocs_per_request", "count", "lower", 0, "allocs_per_job on routed_poll"},
	{"router.get_us", "us", "lower", 0, "latency_p50_us and cpu_us_per_job on routed_poll (~3 per job)"},
	{"router.stats_us", "us", "lower", 0, "latency_p99_us on routed_poll: fan-out and merge every 64th job"},
	{"router.ring_lookup_ns", "ns", "lower", 0, "router.hop_self_us: Ring.NodeFor"},
	{"router.node_share_max", "x", "lower", 0, "jobs_per_s on routed_poll: busiest node's job share / even share"},
	{"router.polls_per_job", "count", "lower", 0, "cpu_us_per_job on routed_poll: faster settles mean fewer polls"},
	{"core.submit_us", "us", "lower", 0, "jobs_per_s on plan_cold: Scheduler.Submit + admission with the plan search inline"},
	{"core.run_us", "us", "lower", 0, "jobs_per_s on exec_heavy: Engine.Run to idle"},
	{"core.allocs_per_job", "count", "lower", 0, "allocs_per_job on every workload"},
	{"core.plan_cache_hit_frac", "share", "higher", 0, "workload validity: ~1 on serve_mixed/exec_heavy, ~0 on plan_cold"},
	{"core.decomp_cache_hit_frac", "share", "higher", 0, "workload validity: ~1 on serve_mixed/exec_heavy, ~0 on plan_cold"},
	{"core.plan_searches_per_job", "count", "lower", 0, "cpu_us_per_job on plan_cold"},
	{"core.singleflight_hit_frac", "share", "higher", 0, "cpu_us_per_job when identical shapes arrive together"},
	{"core.plan_conflicts", "count", "lower", 0, "must stay 0: no workload changes capacity"},
	{"core.scratch_hit_frac", "share", "higher", 0, "allocs_per_job on exec_heavy"},
	{"core.key_intern_hit_frac", "share", "higher", 0, "allocs_per_job on serve_mixed"},
	{"core.queue_delay_sim_s_mean", "sim-s", "lower", 0, "sim_makespan_mean_s: admission wait in sim time"},
	{"core.shard_sim_s_max", "sim-s", "lower", 0, "epoch sizing: must stay under 16,384 (seed llmsim livelock)"},
	{"planner.decompose_us", "us", "lower", 0, "cpu_us_per_job on plan_cold"},
	{"planner.nodes_per_job", "count", "lower", 0, "the work unit of decompose, freeze and plan"},
	{"planner.allocs_per_decompose", "count", "lower", 0, "allocs_per_job on plan_cold"},
	{"optimizer.plan_us", "us", "lower", 0, "cpu_us_per_job on plan_cold"},
	{"optimizer.allocs_per_plan", "count", "lower", 0, "allocs_per_job on plan_cold"},
	{"dag.build_freeze_ns_per_node", "ns", "lower", 0, "planner.decompose_us"},
	{"dag.tracker_ns_per_node", "ns", "lower", 0, "core.run_us on exec_heavy"},
	{"sim.events_per_job", "count", "lower", 0, "x sim.ns_per_event = the sim share of cpu_us_per_job; exec_heavy first"},
	{"sim.ns_per_event", "ns", "lower", 0, "cpu_us_per_job on exec_heavy; also the host-calibration unit"},
	{"sim.overflow_frac", "share", "lower", 0, "sim.ns_per_event: schedules past the wheel window"},
	{"sim.peak_pending", "count", "lower", 0, "sim.ns_per_event: queue depth"},
	{"llmsim.ns_per_request", "ns", "lower", 0, "core.run_us on exec_heavy and serve_mixed"},
	{"cluster.alloc_release_ns", "ns", "lower", 0, "core.run_us on exec_heavy"},
	{"cluster.snapshot_ns", "ns", "lower", 0, "core.submit_us on every workload"},
	{"telemetry.set_ns", "ns", "lower", 0, "core.run_us on exec_heavy"},
	{"telemetry.integral_ns", "ns", "lower", 0, "report.finalize_us"},
	{"telemetry.points_per_job", "count", "lower", 0, "alloc_bytes_per_job and telemetry work on exec_heavy"},
	{"report.finalize_us", "us", "lower", 0, "core.run_us: energy, cost and utilisation integrals per job"},
	{"profiles.cold_build_ms", "ms", "lower", 0, "none of the gated metrics: paid once per process, and setup_s is a median over epochs; watch it here"},
	{"transport.loopback_request_us", "us", "lower", 0, "none: sizes what a batch endpoint could save"},
	{"transport.self_us", "us", "lower", 0, "none: kernel + net/http on top of api.request_us"},
	{"trace.overhead_frac", "share", "lower", 0, "none: the price of recording spans"},
	{"host.calibration_ns", "ns", "lower", 0, "none: the raw speed of the host during the run; every time above is scaled by refCalibrationNs over it"},
	{"host.steal_frac", "share", "lower", 0, "none: the share of the machine's CPU time the hypervisor gave to other guests during the run (/proc/stat steal); past a few percent the run's times are not the program's"},
}

// measurement is one metric's value in a result.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values maps metric names to numbers; render attaches units from a table.
type values map[string]float64

func render(defs []metricDef, v values) map[string]measurement {
	out := make(map[string]measurement, len(defs))
	for _, d := range defs {
		out[d.name] = measurement{Value: v[d.name], Unit: d.unit}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd folds a finished run into the end-to-end metrics, the times scaled
// to reference speed.
func (r *runner) endToEnd() values {
	done := float64(r.done)
	t := r.timings()
	p50, p99 := t.lat.percentiles()
	f := speedFactor(t.calibration)
	return values{
		"setup_s":             median(t.setup) * f,
		"jobs_per_s":          median(t.rate) / f,
		"latency_p50_us":      p50 * f,
		"latency_p99_us":      p99 * f,
		"cpu_us_per_job":      median(t.cpu) * f,
		"allocs_per_job":      ratio(float64(r.mallocs), done),
		"alloc_bytes_per_job": ratio(float64(r.bytes), done),
		"sim_makespan_mean_s": ratio(r.makespanSum, done),
		"sim_energy_wh_mean":  ratio(r.energySum, done),
		"failed_frac":         ratio(float64(r.failed), float64(r.attempted)),
	}
}

// perLayer folds the run's /v1/stats deltas and the traced pass into the
// per-layer metrics.
func (r *runner) perLayer(L *layers) values {
	c := r.counters
	n := func(i counter) float64 { return float64(c.sum[i]) }
	jobs := n(cJobs)
	v := values{
		"core.plan_cache_hit_frac":    ratio(n(cPlanHits), jobs),
		"core.decomp_cache_hit_frac":  ratio(n(cDecompHits), jobs),
		"core.plan_searches_per_job":  ratio(n(cSearches), jobs),
		"core.singleflight_hit_frac":  ratio(n(cSingleflight), n(cSearches)+n(cSingleflight)),
		"core.plan_conflicts":         n(cConflicts),
		"core.scratch_hit_frac":       ratio(n(cScratchHits), n(cScratchHits)+n(cScratchMisses)),
		"core.key_intern_hit_frac":    ratio(n(cInternHits), n(cInternHits)+n(cInternMisses)),
		"core.queue_delay_sim_s_mean": ratio(c.queueDelaySum, float64(r.samples)),
		"core.shard_sim_s_max":        c.shardSimMax,
		"sim.events_per_job":          ratio(n(cEvents), jobs),
		"sim.overflow_frac":           ratio(n(cOverflow), n(cOverflow)+n(cWheel)),
		"sim.peak_pending":            float64(c.peakPending),
		"telemetry.points_per_job":    ratio(n(cTelemetryPoints), jobs),
		"router.polls_per_job":        ratio(float64(r.polls), float64(r.pollJobs)),
		"host.calibration_ns":         median(r.timings().calibration),
		"host.steal_frac":             r.stealFrac,
	}
	if len(c.nodeJobs) > 0 {
		var total, busiest uint64
		for _, n := range c.nodeJobs {
			total += n
			busiest = max(busiest, n)
		}
		v["router.node_share_max"] = ratio(float64(busiest)*float64(len(c.nodeJobs)), float64(total))
	}
	if L == nil {
		return v
	}
	dur, spans := spanTotals(L.spans)
	self := selfTimes(L.spans)
	us := func(name spanName) float64 { return ratio(float64(dur[name])/1e3, float64(spans[name])) * L.factor }
	tj := float64(L.jobs)
	v["api.request_us"] = us(spAPIRequest)
	v["api.decode_us"] = us(spAPIDecode)
	v["api.encode_us"] = us(spAPIEncode)
	v["api.get_us"] = us(spAPIGet)
	v["api.stats_us"] = us(spAPIStats)
	v["core.submit_us"] = us(spCoreSubmit)
	v["core.run_us"] = us(spCoreRun)
	v["api.self_us"] = v["api.request_us"]
	if !r.s.routed {
		// A waited POST contains the job; a wait:false one returns before the
		// shard has touched it, so all of it is the handler's own.
		v["api.self_us"] -= v["core.submit_us"] + v["core.run_us"]
	}
	v["api.allocs_per_request"] = ratio(float64(L.allocs.api), tj)
	v["api.resp_bytes"] = ratio(float64(L.respBytes), tj)
	v["api.setup_ms"] = median(L.builds) * 1e3 * L.factor
	v["core.allocs_per_job"] = ratio(float64(L.allocs.core), tj)
	v["planner.decompose_us"] = us(spPlannerDecompose)
	v["planner.nodes_per_job"] = ratio(float64(L.nodes), tj)
	v["planner.allocs_per_decompose"] = ratio(float64(L.allocs.decompose), tj)
	v["optimizer.plan_us"] = us(spOptimizerPlan)
	v["optimizer.allocs_per_plan"] = ratio(float64(L.allocs.plan), tj)
	v["dag.build_freeze_ns_per_node"] = ratio(float64(dur[spDagBuildFreeze]), float64(L.nodes)) * L.factor
	v["dag.tracker_ns_per_node"] = ratio(float64(dur[spDagTracker]), float64(L.nodes)) * L.factor
	v["report.finalize_us"] = us(spReportFinalize)
	v["transport.loopback_request_us"] = us(spTransportRequest)
	v["transport.self_us"] = v["transport.loopback_request_us"] - v["api.request_us"]
	v["trace.overhead_frac"] = median(L.overhead) - 1
	if spans[spRouterRequest] > 0 {
		v["router.request_us"] = us(spRouterRequest)
		v["router.hop_self_us"] = ratio(float64(self[spRouterRequest])/1e3, float64(spans[spRouterRequest])) * L.factor
		v["router.get_us"] = us(spRouterGet)
		v["router.stats_us"] = us(spRouterStats)
		v["router.extra_allocs_per_request"] = ratio(float64(L.allocs.router)-float64(L.allocs.api), tj)
	}
	for name, x := range L.micro {
		v[name] = x
	}
	return v
}
