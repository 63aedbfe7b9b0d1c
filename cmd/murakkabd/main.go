// Command murakkabd serves the Murakkab runtime over HTTP — the AIWaaS
// surface from the paper's §5 discussion, run as a long-lived, sharded
// serving daemon: tenants hash to runtime shards, jobs are admitted
// asynchronously and multiplex each shard's warm serving engines. Shard
// memory stays bounded under retention: telemetry older than -retain
// simulated seconds is compacted into rollup buckets, and a shard whose
// retained series exceed -max-series-points is recycled (drained and
// replaced) without failing in-flight jobs. With -reconfig, running jobs'
// remaining stages are re-planned and re-bound at stage boundaries when a
// shard's fleet churns or its cluster manager rebalances (-rebalance).
// With -max-retries (and optionally -job-deadline), failed stages retry with
// capped exponential backoff on a re-planned binding instead of failing the
// job; -faults replays a seeded deterministic fault trace against each shard
// for chaos testing. With -slo, tenants carry SLO tiers (-slo-tenants,
// -slo-default) and each shard degrades gracefully under overload: above the
// high watermark (-slo-high/-slo-low) degradable tiers admit onto cheaper
// plans, and per-tenant queue bounds (-slo-queue-bound) and cost budgets
// (-slo-budget) shed the excess with HTTP 429 instead of queueing unboundedly.
// With -router, the daemon scales out horizontally: it runs -nodes identical
// in-process pools behind a consistent-hash router tier that maps each tenant
// onto a node, fans /v1/stats out across the cluster, and on node departure
// drains or reroutes that node's jobs instead of stranding them.
//
//	murakkabd -addr :8080 -shards 2 -concurrency 4 -vms 2 \
//	  -retain 3600 -max-series-points 1048576 -plan-workers 0 \
//	  -reconfig -rebalance 30 -max-retries 4 -job-deadline 1800 \
//	  -slo -slo-tenants "alice=gold,bob=bronze" -slo-queue-bound 8
//
//	curl localhost:8080/v1/library
//	curl localhost:8080/v1/stats
//	curl -X POST localhost:8080/v1/jobs -d '{
//	  "tenant": "alice",
//	  "description": "List objects shown/mentioned in the videos",
//	  "constraint": "MIN_COST", "min_quality": 0.95,
//	  "inputs": [{"name": "cats.mov", "kind": "video",
//	              "attrs": {"duration_s": 240, "scene_len_s": 30,
//	                        "frames_per_scene": 24}}]}'
//	curl localhost:8080/v1/jobs/job-00000001
//	curl -X DELETE localhost:8080/v1/jobs/job-00000001
//
// On SIGINT/SIGTERM the daemon stops accepting connections, drains in-flight
// HTTP requests, then drains the runtime shards (queued and running jobs
// complete) before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/router"
)

// daemonFlags collects the tuning flags validateFlags checks (the listen
// address and durations are left to the flag package's own parsing).
type daemonFlags struct {
	retain          float64
	maxSeriesPoints int
	planWorkers     int
	rebalance       float64
	faults          float64
	maxRetries      int
	jobDeadline     float64

	slo           bool
	sloTenants    string
	sloDefault    string
	sloHigh       float64
	sloLow        float64
	sloQueueBound int
	sloBudget     float64

	router bool
	nodes  int
}

// validateFlags rejects out-of-range tuning flags up front. Negative values
// are invalid, not "disabled": an operator typing -retain -1 almost certainly
// fat-fingered a window, and silently running without compaction (or without
// off-loop planning) would only surface as slow memory growth much later. It
// returns the parsed -slo-tenants mapping so main wires exactly what was
// validated.
func validateFlags(v daemonFlags) (map[string]string, error) {
	if v.retain < 0 {
		return nil, fmt.Errorf("-retain must be >= 0 (got %v); 0 selects the default window", v.retain)
	}
	if v.maxSeriesPoints < 0 {
		return nil, fmt.Errorf("-max-series-points must be >= 0 (got %d); 0 selects the default budget", v.maxSeriesPoints)
	}
	if v.planWorkers < 0 {
		return nil, fmt.Errorf("-plan-workers must be >= 0 (got %d); 0 selects GOMAXPROCS", v.planWorkers)
	}
	if v.rebalance < 0 {
		return nil, fmt.Errorf("-rebalance must be >= 0 (got %v); 0 disables the rebalancing loop", v.rebalance)
	}
	if v.faults < 0 {
		return nil, fmt.Errorf("-faults must be >= 0 (got %v); 0 disables fault injection", v.faults)
	}
	if v.maxRetries < 0 {
		return nil, fmt.Errorf("-max-retries must be >= 0 (got %d); 0 disables failure recovery", v.maxRetries)
	}
	if v.jobDeadline < 0 {
		return nil, fmt.Errorf("-job-deadline must be >= 0 (got %v); 0 disables the per-job deadline", v.jobDeadline)
	}
	if v.nodes != 0 && !v.router {
		return nil, fmt.Errorf("-nodes requires -router")
	}
	if v.router && v.nodes < 0 {
		return nil, fmt.Errorf("-nodes must be >= 1 (got %d); 0 selects the default of 3", v.nodes)
	}
	if !v.slo {
		// An SLO sub-flag without -slo would be silently ignored; that is the
		// same fat-finger class as a negative window.
		switch {
		case v.sloTenants != "":
			return nil, fmt.Errorf("-slo-tenants requires -slo")
		case v.sloDefault != "":
			return nil, fmt.Errorf("-slo-default requires -slo")
		case v.sloHigh != 0 || v.sloLow != 0:
			return nil, fmt.Errorf("-slo-high/-slo-low require -slo")
		case v.sloQueueBound != 0:
			return nil, fmt.Errorf("-slo-queue-bound requires -slo")
		case v.sloBudget != 0:
			return nil, fmt.Errorf("-slo-budget requires -slo")
		}
		return nil, nil
	}
	if v.sloHigh < 0 || v.sloLow < 0 {
		return nil, fmt.Errorf("-slo-high/-slo-low must be >= 0 (got %v/%v); 0 selects the defaults", v.sloHigh, v.sloLow)
	}
	if v.sloQueueBound < 0 {
		return nil, fmt.Errorf("-slo-queue-bound must be >= 0 (got %d); 0 keeps the per-class bounds", v.sloQueueBound)
	}
	if v.sloBudget < 0 {
		return nil, fmt.Errorf("-slo-budget must be >= 0 (got %v); 0 keeps the per-class budgets", v.sloBudget)
	}
	tenants, err := parseTenantTiers(v.sloTenants)
	if err != nil {
		return nil, err
	}
	// The scheduler's own validation (defaults applied: built-in classes,
	// watermark band) is the authority on the assembled configuration.
	cfg := core.SLOConfig{
		TenantTiers:   tenants,
		DefaultClass:  v.sloDefault,
		HighWatermark: v.sloHigh,
		LowWatermark:  v.sloLow,
		QueueBound:    v.sloQueueBound,
		BudgetUSD:     v.sloBudget,
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("-slo: %w", err)
	}
	return tenants, nil
}

// parseTenantTiers parses the -slo-tenants mapping, "tenant=class" pairs
// separated by commas ("alice=gold,bob=bronze").
func parseTenantTiers(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]string{}
	for _, ent := range strings.Split(s, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		tenant, class, ok := strings.Cut(ent, "=")
		tenant, class = strings.TrimSpace(tenant), strings.TrimSpace(class)
		if !ok || tenant == "" || class == "" {
			return nil, fmt.Errorf("-slo-tenants entry %q is not tenant=class", ent)
		}
		if _, dup := out[tenant]; dup {
			return nil, fmt.Errorf("-slo-tenants maps tenant %q twice", tenant)
		}
		out[tenant] = class
	}
	return out, nil
}

// newHTTPServer bounds what a client can hold open: a request's headers must
// arrive within 5 s and its whole body (at most 1 MiB) within 30 s, and an
// idle keep-alive connection is closed after two minutes. WriteTimeout stays
// unset: it would start when the request has been read and cut off wait:true
// holders, whose answer comes whenever the job settles.
func newHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	shards := flag.Int("shards", 2, "runtime shards (tenants hash across them)")
	concurrency := flag.Int("concurrency", 4, "max concurrent jobs per shard")
	vms := flag.Int("vms", 2, "ND96amsr_A100_v4 VMs per shard")
	retain := flag.Float64("retain", 0,
		"per-shard telemetry retention window in simulated seconds: older history is "+
			"compacted into rollup buckets (0 = default 3600)")
	maxSeriesPoints := flag.Int("max-series-points", 0,
		"per-shard telemetry budget in series change points before the shard is recycled "+
			"(0 = default 1048576)")
	planWorkers := flag.Int("plan-workers", 0,
		"per-shard off-loop plan-search workers: admission's configuration search runs "+
			"in parallel against immutable snapshots and commits optimistically on the "+
			"shard loop (0 = default GOMAXPROCS)")
	reconfig := flag.Bool("reconfig", false,
		"enable mid-flight reconfiguration: when a shard's fleet churns or its cluster "+
			"manager rebalances, running jobs' remaining stages are re-planned and re-bound "+
			"at stage boundaries if the new plan beats the current one by a hysteresis margin")
	rebalance := flag.Float64("rebalance", 0,
		"per-shard rebalancing-loop period in simulated seconds (engine grow/shrink from "+
			"DAG lookahead while workflows are active; 0 disables)")
	faults := flag.Float64("faults", 0,
		"deterministic fault injection: total fault events per simulated second per shard, "+
			"split evenly across engine crashes, worker losses, stage stalls and transient "+
			"call errors (0 disables; intended for chaos testing, not production serving)")
	faultSeed := flag.Int64("fault-seed", 1,
		"seed for the per-shard fault traces and the recovery backoff jitter streams")
	maxRetries := flag.Int("max-retries", 0,
		"per-task attempt budget: failed stages retry with capped exponential backoff on a "+
			"re-planned binding until the budget is spent (0 disables failure recovery)")
	jobDeadline := flag.Float64("job-deadline", 0,
		"per-job deadline in simulated seconds: jobs still running past it fail with "+
			"deadline_exceeded (0 disables; setting it alone still enables recovery)")
	slo := flag.Bool("slo", false,
		"enable SLO tiers (gold/silver/bronze) and graceful overload degradation: above "+
			"the high watermark, degradable tiers admit onto cheaper plans and per-tenant "+
			"queue bounds shed the excess with HTTP 429 instead of queueing unboundedly")
	sloTenants := flag.String("slo-tenants", "",
		"tenant-to-tier mapping as comma-separated tenant=class pairs "+
			"(\"alice=gold,bob=bronze\"); unmapped tenants take -slo-default")
	sloDefault := flag.String("slo-default", "",
		"SLO class for unmapped tenants (default silver)")
	sloHigh := flag.Float64("slo-high", 0,
		"overload high watermark: admission pressure — (running + queued) jobs over the "+
			"shard concurrency bound — at which degraded admissions engage (0 = default 2.0)")
	sloLow := flag.Float64("slo-low", 0,
		"overload low watermark: pressure at or below which the controller disengages; "+
			"must stay below -slo-high, the gap is the hysteresis band (0 = default 1.0)")
	sloQueueBound := flag.Int("slo-queue-bound", 0,
		"flat per-tenant admission queue bound overriding every class's own; submissions "+
			"beyond it are shed with 429 shed_overload (0 keeps the per-class bounds)")
	sloBudget := flag.Float64("slo-budget", 0,
		"flat per-tenant planned-cost budget in USD overriding every class's own, windowed "+
			"by shard recycle; beyond it submissions get 429 budget_exhausted (0 keeps the "+
			"per-class budgets)")
	routerMode := flag.Bool("router", false,
		"cluster mode: run -nodes in-process murakkabd nodes behind a consistent-hash "+
			"router that maps tenants onto nodes, fans /v1/stats out across them, and "+
			"drains departing nodes without stranding jobs")
	nodes := flag.Int("nodes", 0,
		"node count for -router (0 = default 3); each node is a full shared pool "+
			"sized by -shards/-vms/-concurrency")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second,
		"how long to wait for in-flight HTTP requests on shutdown")
	flag.Parse()

	tenantTiers, err := validateFlags(daemonFlags{
		retain:          *retain,
		maxSeriesPoints: *maxSeriesPoints,
		planWorkers:     *planWorkers,
		rebalance:       *rebalance,
		faults:          *faults,
		maxRetries:      *maxRetries,
		jobDeadline:     *jobDeadline,
		slo:             *slo,
		sloTenants:      *sloTenants,
		sloDefault:      *sloDefault,
		sloHigh:         *sloHigh,
		sloLow:          *sloLow,
		sloQueueBound:   *sloQueueBound,
		sloBudget:       *sloBudget,
		router:          *routerMode,
		nodes:           *nodes,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "murakkabd: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	poolCfg := api.PoolConfig{
		Shards:                *shards,
		VMsPerShard:           *vms,
		MaxConcurrentPerShard: *concurrency,
		RetainSimSeconds:      *retain,
		MaxSeriesPoints:       *maxSeriesPoints,
		PlanWorkers:           *planWorkers,
		Reconfig:              *reconfig,
		RebalancePeriodS:      *rebalance,
		FaultRate:             *faults,
		FaultSeed:             *faultSeed,
		MaxRetries:            *maxRetries,
		JobDeadlineS:          *jobDeadline,
		SLO:                   *slo,
		SLOTenantTiers:        tenantTiers,
		SLODefaultClass:       *sloDefault,
		SLOHighWatermark:      *sloHigh,
		SLOLowWatermark:       *sloLow,
		SLOQueueBound:         *sloQueueBound,
		SLOBudgetUSD:          *sloBudget,
	}

	// The serving runtime is either a single shared pool or, with -router, a
	// consistent-hash router tier over -nodes identical in-process pools.
	var (
		handler      http.Handler
		closeRuntime func()
		nodeCount    int
	)
	if *routerMode {
		nodeCount = *nodes
		if nodeCount == 0 {
			nodeCount = 3
		}
		rt, err := router.New(router.Config{Nodes: nodeCount, Node: poolCfg})
		if err != nil {
			log.Fatalf("murakkabd: provisioning router tier: %v", err)
		}
		handler = rt
		closeRuntime = rt.Close
		// Health-check the nodes on a real-time cadence so an unresponsive
		// node is routed around rather than timing out every request.
		hbStop := make(chan struct{})
		defer close(hbStop)
		go func() {
			t := time.NewTicker(5 * time.Second)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					rt.HeartbeatOnce()
				case <-hbStop:
					return
				}
			}
		}()
	} else {
		server, err := api.NewServer(poolCfg)
		if err != nil {
			log.Fatalf("murakkabd: provisioning runtime pool: %v", err)
		}
		handler = server
		closeRuntime = server.Close
	}

	srv := newHTTPServer(*addr, handler)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	if *routerMode {
		log.Printf("murakkabd listening on %s (router mode: %d nodes × %d shards × %d VMs, %d jobs/shard)",
			*addr, nodeCount, *shards, *vms, *concurrency)
	} else {
		log.Printf("murakkabd listening on %s (%d shards × %d VMs, %d jobs/shard)",
			*addr, *shards, *vms, *concurrency)
	}

	select {
	case err := <-errCh:
		// Listener died before any signal: nothing to drain.
		log.Fatalf("murakkabd: %v", err)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills immediately
	log.Printf("murakkabd: shutdown signal received, draining")

	shCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		log.Printf("murakkabd: HTTP drain: %v", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("murakkabd: listener: %v", err)
	}
	// Drain the runtime: queued and running jobs complete (in router mode,
	// every node's pool drains).
	closeRuntime()
	log.Printf("murakkabd: drained, exiting")
}
