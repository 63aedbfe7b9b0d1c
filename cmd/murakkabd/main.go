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
// With -nodes N (N >= 1), the daemon scales out horizontally: it runs N
// identical in-process pools behind a consistent-hash router tier that maps
// each tenant onto a node, fans /v1/stats out across the cluster, and on node
// departure drains or reroutes that node's jobs instead of stranding them.
// Every tuning flag binds straight into one api.PoolConfig, and its Validate
// is the only check: a negative or NaN value, or an SLO sub-flag without
// -slo, is a usage error.
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
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/router"
)

// options is everything murakkabd's command line sets: the listen address,
// the node count, the HTTP drain bound, and the pool configuration every node
// runs.
type options struct {
	addr         string
	nodes        uint
	drainTimeout time.Duration
	pool         api.PoolConfig
}

// flags binds the command line into o. The tuning flags write straight into
// o.pool, so api.PoolConfig.Validate is their only check: a negative or NaN
// value is an error, not "disabled" (an operator typing -retain -1 almost
// certainly fat-fingered a window), and so is an SLO sub-flag without -slo.
// A window or budget that must never trigger is spelled Inf or the largest
// int.
func (o *options) flags() *flag.FlagSet {
	fs := flag.NewFlagSet("murakkabd", flag.ContinueOnError)
	c := &o.pool
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&c.Shards, "shards", 2, "runtime shards (tenants hash across them)")
	fs.IntVar(&c.MaxConcurrentPerShard, "concurrency", 4, "max concurrent jobs per shard")
	fs.IntVar(&c.VMsPerShard, "vms", 2, "ND96amsr_A100_v4 VMs per shard")
	fs.Float64Var(&c.RetainSimSeconds, "retain", 0,
		"per-shard telemetry retention window in simulated seconds: older history is "+
			"compacted into rollup buckets (0 = default 3600, Inf = never)")
	fs.IntVar(&c.MaxSeriesPoints, "max-series-points", 0,
		"per-shard telemetry budget in series change points before the shard is recycled "+
			"(0 = default 1048576)")
	fs.IntVar(&c.PlanWorkers, "plan-workers", 0,
		"per-shard off-loop plan-search workers: admission's configuration search runs "+
			"in parallel against immutable snapshots and commits optimistically on the "+
			"shard loop (0 = default GOMAXPROCS)")
	fs.BoolVar(&c.Reconfig, "reconfig", false,
		"enable mid-flight reconfiguration: when a shard's fleet churns or its cluster "+
			"manager rebalances, running jobs' remaining stages are re-planned and re-bound "+
			"at stage boundaries if the new plan beats the current one by a hysteresis margin")
	fs.Float64Var(&c.RebalancePeriodS, "rebalance", 0,
		"per-shard rebalancing-loop period in simulated seconds (engine grow/shrink from "+
			"DAG lookahead while workflows are active; 0 disables)")
	fs.Float64Var(&c.FaultRate, "faults", 0,
		"deterministic fault injection: total fault events per simulated second per shard, "+
			"split evenly across engine crashes, worker losses, stage stalls and transient "+
			"call errors (0 disables; intended for chaos testing, not production serving)")
	fs.Int64Var(&c.FaultSeed, "fault-seed", 1,
		"seed for the per-shard fault traces and the recovery backoff jitter streams")
	fs.IntVar(&c.MaxRetries, "max-retries", 0,
		"per-task attempt budget: failed stages retry with capped exponential backoff on a "+
			"re-planned binding until the budget is spent (0 disables failure recovery)")
	fs.Float64Var(&c.JobDeadlineS, "job-deadline", 0,
		"per-job deadline in simulated seconds: jobs still running past it fail with "+
			"deadline_exceeded (0 disables; setting it alone still enables recovery)")
	fs.BoolVar(&c.SLO, "slo", false,
		"enable SLO tiers (gold/silver/bronze) and graceful overload degradation: above "+
			"the high watermark, degradable tiers admit onto cheaper plans and per-tenant "+
			"queue bounds shed the excess with HTTP 429 instead of queueing unboundedly")
	fs.Var((*tenantTiers)(&c.SLOTenantTiers), "slo-tenants",
		"tenant-to-tier mapping as comma-separated tenant=class pairs "+
			"(\"alice=gold,bob=bronze\"); unmapped tenants take -slo-default")
	fs.StringVar(&c.SLODefaultClass, "slo-default", "",
		"SLO class for unmapped tenants (default silver)")
	fs.Float64Var(&c.SLOHighWatermark, "slo-high", 0,
		"overload high watermark: admission pressure — (running + queued) jobs over the "+
			"shard concurrency bound — at which degraded admissions engage (0 = default 2.0)")
	fs.Float64Var(&c.SLOLowWatermark, "slo-low", 0,
		"overload low watermark: pressure at or below which the controller disengages; "+
			"must stay below -slo-high, the gap is the hysteresis band (0 = default 1.0)")
	fs.IntVar(&c.SLOQueueBound, "slo-queue-bound", 0,
		"flat per-tenant admission queue bound overriding every class's own; submissions "+
			"beyond it are shed with 429 shed_overload (0 keeps the per-class bounds)")
	fs.Float64Var(&c.SLOBudgetUSD, "slo-budget", 0,
		"flat per-tenant planned-cost budget in USD overriding every class's own, windowed "+
			"by shard recycle; beyond it submissions get 429 budget_exhausted (0 keeps the "+
			"per-class budgets)")
	fs.UintVar(&o.nodes, "nodes", 0,
		"cluster mode for N >= 1: run N in-process murakkabd nodes, each a full shared pool "+
			"sized by -shards/-vms/-concurrency, behind a consistent-hash router that maps "+
			"tenants onto nodes, fans /v1/stats out across them, and drains departing nodes "+
			"without stranding jobs (0 = one pool, no router)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second,
		"how long to wait for in-flight HTTP requests on shutdown")
	return fs
}

// parse reads args into options and validates the pool configuration. The
// flag set prints nothing: a syntax error, -h and Validate's verdict all come
// back as the error.
func parse(args []string) (options, error) {
	var o options
	fs := o.flags()
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	return o, o.pool.Validate()
}

// tenantTiers is the -slo-tenants value: "tenant=class" pairs separated by
// commas ("alice=gold,bob=bronze"), set straight into
// PoolConfig.SLOTenantTiers. Unknown classes are Validate's to reject.
type tenantTiers map[string]string

func (t *tenantTiers) Set(s string) error {
	out := map[string]string{}
	for _, ent := range strings.Split(s, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		tenant, class, ok := strings.Cut(ent, "=")
		tenant, class = strings.TrimSpace(tenant), strings.TrimSpace(class)
		if !ok || tenant == "" || class == "" {
			return fmt.Errorf("entry %q is not tenant=class", ent)
		}
		if _, dup := out[tenant]; dup {
			return fmt.Errorf("tenant %q mapped twice", tenant)
		}
		out[tenant] = class
	}
	*t = out
	return nil
}

func (t *tenantTiers) String() string {
	if t == nil {
		return ""
	}
	pairs := make([]string, 0, len(*t))
	for tenant, class := range *t {
		pairs = append(pairs, tenant+"="+class)
	}
	slices.Sort(pairs)
	return strings.Join(pairs, ",")
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
	o, err := parse(os.Args[1:])
	if err != nil {
		code := 0
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(os.Stderr, "murakkabd: %v\n", err)
			code = 2
		}
		fmt.Fprintln(os.Stderr, "Usage of murakkabd:")
		new(options).flags().PrintDefaults()
		os.Exit(code)
	}

	// The serving runtime is either a single shared pool or, with -nodes N,
	// a consistent-hash router tier over N identical in-process pools.
	var (
		handler      http.Handler
		closeRuntime func()
	)
	if o.nodes > 0 {
		rt, err := router.New(router.Config{Nodes: int(o.nodes), Node: o.pool})
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
		server, err := api.NewServer(o.pool)
		if err != nil {
			log.Fatalf("murakkabd: provisioning runtime pool: %v", err)
		}
		handler = server
		closeRuntime = server.Close
	}

	srv := newHTTPServer(o.addr, handler)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	if o.nodes > 0 {
		log.Printf("murakkabd listening on %s (router mode: %d nodes × %d shards × %d VMs, %d jobs/shard)",
			o.addr, o.nodes, o.pool.Shards, o.pool.VMsPerShard, o.pool.MaxConcurrentPerShard)
	} else {
		log.Printf("murakkabd listening on %s (%d shards × %d VMs, %d jobs/shard)",
			o.addr, o.pool.Shards, o.pool.VMsPerShard, o.pool.MaxConcurrentPerShard)
	}

	select {
	case err := <-errCh:
		// Listener died before any signal: nothing to drain.
		log.Fatalf("murakkabd: %v", err)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills immediately
	log.Printf("murakkabd: shutdown signal received, draining")

	shCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
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
