package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"

	"repro/internal/api"
	"repro/internal/router"
	"repro/internal/workflow"
	"repro/internal/workload"
)

// spec is one benchmark workload: how a server is built, which request
// bodies an epoch sends, and what the run must look like to be valid.
type spec struct {
	name string
	// why is the reason the workload exists (BENCHMARK.json carries the same
	// line).
	why string
	// epochJobs is the number of jobs one fresh server receives; the first
	// warmup of them are sent untimed so caches fill and engines come up.
	// Epochs exist because of the seed's llmsim livelock at large sim
	// clocks (README, "Seed defects"): each is sized so no shard's sim clock
	// passes ~8,192 sim-s.
	epochJobs, warmup int
	// routed sends through a 3-node router with wait:false and polls.
	routed bool
	// hitLo/hitHi bound the plan- and decomposition-cache hit fractions over
	// the timed jobs: the check that the workload exercises (or bypasses)
	// the caches as designed.
	hitLo, hitHi float64
	// arrivals draws an epoch's jobs and tenants, in order, from a seed.
	arrivals func(seed int64, n int) ([]workload.Arrival, error)
}

// serviceTenants are the eight tenants of workload.ServiceMix.
var serviceTenants = workload.ServiceMix().Tenants

// routedTenants spreads routed_poll over 64 tenants so the ring's balance
// (router.node_share_max) is measured on a population, not on eight names.
var routedTenants = func() []string {
	out := make([]string, 64)
	for i := range out {
		out[i] = fmt.Sprintf("tenant%02d", i)
	}
	return out
}()

// serviceMix draws from workload.PoissonTrace over workload.ServiceMix with
// the given tenant population.
func serviceMix(tenants []string) func(int64, int) ([]workload.Arrival, error) {
	mix := workload.ServiceMix()
	mix.Tenants = tenants
	return func(seed int64, n int) ([]workload.Arrival, error) {
		// Rate 1 over a horizon of 2n gives ~2n arrivals, of which the first n
		// are kept; double the horizon if a draw ever comes up short.
		for horizon := float64(2 * n); ; horizon *= 2 {
			arrivals, err := workload.PoissonTrace(mix, 1, horizon, seed)
			if err != nil || len(arrivals) >= n {
				return arrivals[:min(n, len(arrivals))], err
			}
		}
	}
}

// specs lists the four workloads in ledger order.
var specs = []spec{
	{
		name:      "serve_mixed",
		why:       "ServiceMix traffic, ~10 repeated shapes: caches hit ~100%, every layer visible and none dominant",
		epochJobs: 400, warmup: 32,
		hitLo: 0.95, hitHi: 1,
		arrivals: serviceMix(serviceTenants),
	},
	{
		name:      "plan_cold",
		why:       "every job a fresh shape: both caches miss, so decompose + freeze + plan search dominate",
		epochJobs: 250, warmup: 0,
		hitLo: 0, hitHi: 0.05,
		arrivals: coldJobs,
	},
	{
		name:      "exec_heavy",
		why:       "three repeated large shapes, ~8x the sim events per job: sim, llmsim, cluster, telemetry do the work",
		epochJobs: 102, warmup: 9,
		hitLo: 0.95, hitHi: 1,
		arrivals: heavyJobs,
	},
	{
		name:      "routed_poll",
		why:       "3-node router, wait:false then poll, stats scrapes: the hop and the read paths beside writes",
		epochJobs: 600, warmup: 32,
		routed: true,
		hitLo:  0, hitHi: 1,
		arrivals: serviceMix(routedTenants),
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// coldJobs draws shapes that are almost surely new to the server: kind
// uniform over video / newsfeed / docqa with the ranges ISSUE 12 fixed,
// constraint alternating MIN_COST / MIN_POWER (the only two that are safe at
// seed).
func coldJobs(seed int64, n int) ([]workload.Arrival, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]workload.Arrival, n)
	for i := range out {
		tenant := serviceTenants[rng.Intn(len(serviceTenants))]
		c := workflow.MinCost
		if rng.Intn(2) == 1 {
			c = workflow.MinPower
		}
		var job workflow.Job
		switch rng.Intn(3) {
		case 0:
			job = workload.VideoJob(1, 1+rng.Intn(6), float64(10+rng.Intn(50)), 6+rng.Intn(30), c)
		case 1:
			job = workload.NewsfeedJob(tenant, 1+rng.Intn(8), c)
			for _, in := range job.Inputs {
				if in.Kind == workflow.InputTopic {
					in.Attrs["queries"] = float64(1 + rng.Intn(6))
				}
			}
		default:
			job = workload.DocQAJob(1+rng.Intn(6), float64(200+rng.Intn(4000)), c)
		}
		out[i] = workload.Arrival{Tenant: tenant, Job: job}
	}
	return out, nil
}

// heavyJobs repeats three large shapes in blocks of three, each block a
// seeded permutation: any run of whole blocks (the warm-up is three, the
// timed phase thirty-one) holds each shape equally often, so the seed moves
// order and tenants but not the mix — the shapes differ ~3x in allocations,
// and a drawn mix would put that into allocs_per_job.
func heavyJobs(seed int64, n int) ([]workload.Arrival, error) {
	rng := rand.New(rand.NewSource(seed))
	shapes := [3]workflow.Job{
		workload.VideoJob(3, 16, 30, 24, workflow.MinCost),
		workload.NewsfeedJob("reader", 12, workflow.MinCost),
		workload.DocQAJob(12, 2000, workflow.MinCost),
	}
	out := make([]workload.Arrival, 0, n+2)
	for len(out) < n {
		for _, k := range rng.Perm(len(shapes)) {
			out = append(out, workload.Arrival{Tenant: serviceTenants[rng.Intn(len(serviceTenants))], Job: shapes[k]})
		}
	}
	return out[:n], nil
}

// epochSeed derives an independent stream per (seed, epoch) with the
// SplitMix64 finalizer, so neighbouring seeds and epochs do not correlate.
func epochSeed(seed int64, epoch int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(epoch) + 1
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

// bodies renders the request bodies of one epoch. The program under test
// only ever sees these bytes.
func (s spec) bodies(seed int64, epoch int) ([][]byte, error) {
	arrivals, err := s.arrivals(epochSeed(seed, epoch), s.epochJobs)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	out := make([][]byte, len(arrivals))
	for i, a := range arrivals {
		if out[i], err = json.Marshal(requestFrom(a.Tenant, a.Job, !s.routed)); err != nil {
			return nil, fmt.Errorf("%s: rendering request: %w", s.name, err)
		}
	}
	return out, nil
}

// requestFrom maps a generated job onto the POST /v1/jobs schema.
func requestFrom(tenant string, job workflow.Job, wait bool) api.JobRequest {
	req := api.JobRequest{
		Tenant:      tenant,
		Description: job.Description,
		Constraint:  job.Constraint.String(),
		MinQuality:  job.MinQuality,
		Tasks:       job.Tasks,
		Wait:        wait,
	}
	for _, in := range job.Inputs {
		req.Inputs = append(req.Inputs, api.InputRequest{Name: in.Name, Kind: string(in.Kind), Attrs: in.Attrs})
	}
	return req
}

// jobFromRequest is the harness's own copy of the handler's request → job
// mapping (api keeps its one unexported), used by the staged trace to feed
// core directly. Bodies the harness generates always carry explicit video
// attributes, so the handler's duration-only convenience is not needed.
func jobFromRequest(req api.JobRequest) (workflow.Job, error) {
	var c workflow.Constraint
	switch req.Constraint {
	case "MIN_COST":
		c = workflow.MinCost
	case "MIN_POWER":
		c = workflow.MinPower
	default:
		return workflow.Job{}, fmt.Errorf("constraint %q is outside the ledger's safe set", req.Constraint)
	}
	job := workflow.Job{Description: req.Description, Tasks: req.Tasks, Constraint: c, MinQuality: req.MinQuality}
	for _, in := range req.Inputs {
		job.Inputs = append(job.Inputs, workflow.Input{Name: in.Name, Kind: workflow.InputKind(in.Kind), Attrs: in.Attrs})
	}
	return job, job.Validate()
}

// server is what an epoch drives: a handler, how to shut it down, and the
// decoded view of its /v1/stats the ledger needs.
type server struct {
	h     http.Handler
	close func()
}

// defaultPool is the daemon's default shape (murakkabd with no flags).
var defaultPool = api.PoolConfig{Shards: 2, VMsPerShard: 2, MaxConcurrentPerShard: 4}

// routedConfig is the routed_poll cluster: three single-shard nodes.
var routedConfig = router.Config{
	Nodes: 3, Seed: 42,
	Node: api.PoolConfig{Shards: 1, VMsPerShard: 2, MaxConcurrentPerShard: 4},
}

// build provisions a fresh server for one epoch.
func (s spec) build() (server, error) {
	if s.routed {
		rt, err := router.New(routedConfig)
		if err != nil {
			return server{}, err
		}
		return server{h: rt, close: rt.Close}, nil
	}
	srv, err := api.NewServer(defaultPool)
	if err != nil {
		return server{}, err
	}
	return server{h: srv, close: srv.Close}, nil
}
