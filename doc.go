// Package repro is a from-scratch Go reproduction of "Towards
// Resource-Efficient Compound AI Systems" (HotOS 2025): the Murakkab
// declarative workflow programming model and adaptive runtime, together with
// every substrate its evaluation depends on, implemented over a
// deterministic discrete-event simulation of the paper's GPU/CPU testbed.
//
// The root package holds only the benchmark harness (bench_test.go); the
// implementation lives under internal/ and the runnable entry points under
// cmd/ and examples/. README.md documents the bench harness and the
// performance architecture.
//
// # Performance architecture
//
// The serving pipeline is engineered so simulation-to-report cost is
// O(events log n), never quadratic in simulated events, mirroring the
// paper's §3.3 amortization claims:
//
//   - telemetry.StepSeries carries a cumulative-integral index, so energy
//     and utilization window queries (Integral/Mean) are O(log n) instead of
//     full scans, and SumSeries/MeanSeries merge change points with a k-way
//     heap rather than per-point binary searches.
//
//   - internal/cluster maintains cluster-wide GPU/CPU power and utilization
//     aggregates incrementally — O(1) at each device sample — so
//     report.Finalize and GPUEnergyJoules read running aggregates instead of
//     re-merging every per-device series per execution.
//
//   - agents.SharedProfiles memoizes library profiling behind a
//     content-keyed store with copy-on-write views (§3.3(a): "profiling is
//     amortized over the lifetime of all the workflows"); each testbed and
//     load point reuses the first profiling pass.
//
//   - the runtime memoizes planner decompositions and optimizer plans,
//     keyed by job/DAG content, constraint, quality floor, pins and cluster
//     capacity class (§3.3(b,c)); structurally-identical jobs in a load
//     sweep plan once, and any capacity or profile change invalidates by
//     changing the key.
//
//   - a job that misses those caches pays for its graph once: dag.Graph is
//     index-addressed (slab nodes, an edge list, CSR adjacency and the
//     topological order built at Freeze from two allocations), and the
//     planner cuts node IDs, labels, metadata (dag.Meta) and generated tool
//     calls from slabs instead of a string or a map each — see README
//     "Performance: the allocation budget".
//
//   - executing a task allocates (almost) nothing: a worker's request for
//     GPUs or cores is a {grantee, token} record in the cluster manager's
//     queue, allocations are cut from slabs, the serving engine reuses its
//     own buffers and a job's tracer is sized from its graph — same README
//     section, "A task without garbage".
//
//   - what a task leaves behind dies with its owner instead of with the
//     collector: a sim.Event is a {record, seq} handle on an engine-owned
//     record that is reused the moment its event is over (the sequence check
//     keeps a stale handle off the next event), an LLM request goes back to
//     the runtime in its own completion callback, and spans are kept by node
//     index and named from the graph when read — same section, "Bytes, not
//     objects".
//
//   - a job's execution state is one block: core.Execution holds its tracker,
//     tracer and report by value and cuts its per-node and per-capability
//     arrays from four typed slabs sized from the frozen graph and the plan;
//     tasks are node indices end to end, and an embedding task's document is
//     built when Execution.Documents is read, not when the task completes —
//     same section, "An execution is one block".
//
// BenchmarkLoadSweepHeavy (~420 jobs over a 2000 s horizon) guards the
// asymptotics; the per-figure benchmarks pin the paper metrics, which are
// bit-stable across these optimizations.
//
// # Serving architecture
//
// The §5 AIWaaS surface runs as a long-lived, sharded daemon
// (cmd/murakkabd): core.Runtime is the executor and core.Scheduler the
// admission layer with first-class job handles (submit → JobID, status,
// result, cancel); sim.Loop pumps each shard's event queue on a dedicated
// goroutine while HTTP handlers post submissions into it; api.Pool shards
// tenants across long-lived runtimes so concurrent jobs multiplex warm
// serving engines and generation-checked plan/decomposition/tool-call
// caches. The daemon has this one serving mode. internal/serving is the
// evaluation harness for all of it — seven scenarios (faults, reconfig,
// overload, serving, retention, admission, cluster), each one identical
// input through two arms, on one sim-time arm runner and one HTTP replay;
// its package comment and README's "The serving scenarios" say what each
// compares and gates. core.Counters is the single declaration of the
// additive /v1/stats counters: the scheduler, the pool's shard and pool rows
// and the router's cluster totals embed it.
//
// Admission itself is pipelined off the shard loop: the configuration
// search (decompose + the optimizer's one-pass argmin) runs on a
// plan-search worker pool (murakkabd -plan-workers, default GOMAXPROCS)
// against immutable generation-stamped cluster snapshots, deduped through a
// singleflight table, and commits optimistically back on the loop — the
// commit validates the capacity-class / profile / library generations and
// re-plans inline only on conflict, so plans are bit-identical to inline
// planning while bursts search in parallel. sim.Loop holds keep a draining
// shard alive until in-flight searches land. The admission scenario reports
// plans/sec, admission_gain_x, submit p50/p95 and conflict_pct.
//
// # Telemetry retention
//
// Shard memory is bounded by tiered retention instead of growing with
// served history: telemetry.StepSeries.CompactBefore drops change points
// behind a watermark while keeping the cumulative-integral index anchored,
// so retained-window Integral/Mean/Max stay bit-identical
// (property-tested); telemetry.RetainedSeries collapses compacted epochs
// into exact-integral rollup buckets on the cluster-wide aggregates;
// cluster.AdvanceEpoch compacts every per-device series and aggregate
// coherently; report.Finalize returns a typed WindowCompactedError for
// windows older than the watermark. The serving pool drives compaction
// from a sim.Loop tick, clamped to the oldest running job's start, and
// recycles a shard (drain → rebuild → swap; in-flight jobs complete) when
// its retained points exceed the configured budget (murakkabd -retain /
// -max-series-points). The retention scenario shows the footprint plateau
// across ≥ 10× the retention window of served history (contained_x vs the
// unbounded arm).
//
// # Runtime reconfiguration
//
// The paper's runtime-adaptation claim (§3.2) is implemented as mid-flight
// re-planning at stage boundaries: core.Execution runs as resumable
// per-stage segments with stage-local decision bindings and an explicit
// remaining-DAG view; a reconfiguration controller on the scheduler
// (core.Config.Reconfig, murakkabd -reconfig) re-runs the
// optimizer over the remaining stages of running jobs whenever the plan
// environment moves — cluster.CapacityGen (fleet churn), the
// profile-store/library generations, or a clustermgr rebalance pass — and
// adopts the new plan only if it beats the current decisions re-scored over
// the same remaining DAG by a hysteresis margin. Completed stages stay
// pinned (paper integrals untouched), capabilities with tasks in flight
// keep their binding (mid-stage migration is rejected by design), and with
// off-loop plan search enabled the re-plan rides the same worker pool and
// optimistic generation-validated commit as admission. With the controller
// disabled, behavior is bit-identical to the pre-reconfiguration runtime.
// The reconfig scenario gates the completion/energy gains in CI.
//
// # Overload and SLO tiers
//
// Under sustained overload the daemon degrades gracefully instead of
// queueing unboundedly (murakkabd -slo): tenants carry SLO classes
// (core.SLOClass — latency target, cost budget, quality floor, queue
// bound), and a watermark-hysteresis overload controller on the scheduler
// (core.Config.SLO) applies a three-rung ladder as admission
// pressure grows — admit normally below the high watermark; above it,
// admit degradable tiers onto cheaper quality-cascade plans (floor- and
// degrade-latency-bounded) while running work re-plans via the
// reconfiguration controller; shed submissions beyond a tenant's queue
// bound or cost budget synchronously with typed errors (shed_overload,
// budget_exhausted → HTTP 429), so nothing strands. /v1/stats exposes
// per-tenant attainment and shed/degrade counters, folded monotonically
// across shard recycles. With -slo off every path is untouched, and a tier
// set that binds nothing changes nothing: TestSLOTiersOffDifferential
// replays one seeded multi-tenant trace through twin schedulers, with and
// without SLO tiers, and requires the same bytes. The overload scenario
// gates tiered-vs-FIFO goodput (≥ 1.2× at 4× overload), bounded queue depth
// and zero stranded jobs in CI.
//
// # One path in production
//
// Every reference implementation a fast path is checked against lives in a
// _test.go file, never behind a flag: the map-based graph
// (internal/dag/oracle_test.go), the enumerate-prune-pick plan search
// (internal/optimizer/oracle_test.go), the slice-scanned event queue
// (internal/sim/oracle_test.go), and core's never-reuse runtime, switched
// by an unexported variable only core's own test binary can set.
//
// # Horizontal scale-out
//
// Beyond one machine, murakkabd -nodes N serves a cluster of N
// identical in-process nodes behind a consistent-hash router tier
// (internal/router): tenants hash onto a ring of seeded virtual nodes
// (placement is a pure function of tenant, seed and membership —
// property-tested for balanced spread and ~1/N disruption on churn), job
// IDs route through a registry, /v1/stats fans out and merges under the
// pool's monotonic-fold discipline, and heartbeats route around unhealthy
// nodes. The hop into a node is a typed call, not HTTP: api's handlers are
// thin shells over DecodeJobRequest, Server.Submit / Status / Cancel and
// Reply.Write, and the router calls the same cores on its in-process
// api.Servers — one decode and one encode per routed request, both by the
// hand-written wire codec (internal/api/wire.go, wire_decode.go) with
// encoding/json as fallback and test oracle. A joining node warms from the content-keyed profile store via
// generation deltas (zero rebuilds); a leaving node drains, re-submits
// still-queued jobs to survivors through the ring, and fails what runs past
// the drain deadline with typed node_down — nothing strands. Without -nodes
// the router package is never touched and single-node wire behavior is
// byte-identical. The cluster scenario measures routed throughput in
// simulated time (completed jobs over the slowest node's makespan), so its
// ≥ 1.7× scaling gate at 3 nodes holds on any host.
package repro
