package serving

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/router"
	"repro/internal/workflow"
	"repro/internal/workload"
)

// ClusterOptions shapes the cluster scenario's trace.
type ClusterOptions struct {
	// Tenants is the tenant population; each tenant submits JobsPerTenant
	// jobs of identical total shape, so node load is proportional to the
	// ring's tenant spread.
	Tenants       int
	JobsPerTenant int
}

// DefaultClusterOptions is the benchmark configuration: 48 tenants × 2 jobs,
// small enough to rerun in CI.
func DefaultClusterOptions() ClusterOptions {
	return ClusterOptions{Tenants: 48, JobsPerTenant: 2}
}

// clusterConfig is the router over n in-process single-shard nodes, on a
// fixed ring.
func clusterConfig(nodes int) router.Config {
	cfg := router.Config{Nodes: nodes, Seed: 42, Node: sharedPool}
	cfg.Node.Shards = 1
	return cfg
}

// ClusterArm is one measured configuration (a node count).
type ClusterArm struct {
	Nodes     int
	Completed int
	// NodeSimS is each node's sim-time makespan after the trace completes;
	// MaxNodeSimS (the slowest node) is the cluster's critical path.
	NodeSimS    []float64
	MaxNodeSimS float64
	// Throughput is Completed / MaxNodeSimS, in jobs per simulated second.
	Throughput float64
}

// ChurnResult is the membership-churn arm: async load across a warm join and
// a drained leave.
type ChurnResult struct {
	Jobs     int
	Stranded int
	// JoinBuilds counts profile builds the joining node ran — zero when
	// generation-delta replication warmed it.
	JoinBuilds   int
	ReroutedJobs int64
	NodeDownJobs int64
	TenantsMoved int64
	// TotalsMonotonic reports whether cluster totals never regressed across
	// the join, the leave and the drain.
	TotalsMonotonic bool
}

// ClusterResult is the full scale-out measurement.
type ClusterResult struct {
	Jobs      int
	OneNode   ClusterArm
	ThreeNode ClusterArm
	// ScalingX = ThreeNode.Throughput / OneNode.Throughput.
	ScalingX float64
	Churn    ChurnResult
}

// clusterTrace renders the deterministic tenant trace: every tenant submits
// the same rotation of job kinds, so total work per tenant is identical.
func clusterTrace(opts ClusterOptions, wait bool) ([][]byte, error) {
	if opts.Tenants <= 0 || opts.JobsPerTenant <= 0 {
		return nil, fmt.Errorf("serving: invalid cluster options %+v", opts)
	}
	kinds := []workflow.Job{
		workload.VideoJob(1, 2, 30, 12, workflow.MinCost),
		workload.NewsfeedJob("reader", 2, workflow.MinCost),
		workload.DocQAJob(2, 2000, workflow.MinCost),
	}
	var out [][]byte
	for round := 0; round < opts.JobsPerTenant; round++ {
		for ti := 0; ti < opts.Tenants; ti++ {
			req := requestFrom(fmt.Sprintf("tenant-%02d", ti), kinds[(ti+round)%len(kinds)])
			req.Wait = wait
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			out = append(out, body)
		}
	}
	return out, nil
}

// roundTrip serves one request through the router and returns the status
// code and the answer.
func roundTrip(rt *router.Router, method, path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// envelope reads a job answer's id and status (empty when it has none).
func envelope(answer []byte) (id, status string) {
	var env struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	json.Unmarshal(answer, &env) // an undecodable answer reads as empty
	return env.ID, env.Status
}

// runClusterArm replays the waited trace against an n-node cluster.
// Submissions are sequential and waited, so each node's sim schedule — and
// therefore the arm's throughput — is a pure function of the trace.
func runClusterArm(nodes int, trace [][]byte) (ClusterArm, error) {
	rt, err := router.New(clusterConfig(nodes))
	if err != nil {
		return ClusterArm{}, err
	}
	defer rt.Close()
	arm := ClusterArm{Nodes: nodes}
	for i, body := range trace {
		if code, answer := roundTrip(rt, http.MethodPost, "/v1/jobs", body); code != http.StatusOK {
			return ClusterArm{}, fmt.Errorf("serving: cluster arm %d nodes, job %d: status %d: %s", nodes, i, code, answer)
		}
		arm.Completed++
	}
	for _, n := range rt.Stats().Nodes {
		arm.NodeSimS = append(arm.NodeSimS, n.SimTimeS)
		arm.MaxNodeSimS = max(arm.MaxNodeSimS, n.SimTimeS)
	}
	if arm.MaxNodeSimS > 0 {
		arm.Throughput = float64(arm.Completed) / arm.MaxNodeSimS
	}
	return arm, nil
}

// runChurn drives the membership-churn arm: async load, heartbeat, a warm
// join, a drained leave with an immediately-expiring deadline, then a poll
// proving every accepted job reached a terminal state through the router.
func runChurn(trace [][]byte) (ChurnResult, error) {
	cfg := clusterConfig(2)
	cfg.DrainDeadline = -1
	rt, err := router.New(cfg)
	if err != nil {
		return ChurnResult{}, err
	}
	defer rt.Close()

	res := ChurnResult{Jobs: len(trace), JoinBuilds: -1, TotalsMonotonic: true}
	var prev router.ClusterTotals
	observeTotals := func() {
		t := rt.Stats().Totals
		if t.Submitted < prev.Submitted || t.Completed < prev.Completed ||
			t.Failed < prev.Failed || t.Canceled < prev.Canceled ||
			t.PlanSearches < prev.PlanSearches || t.Recycles < prev.Recycles ||
			t.EventsProcessed < prev.EventsProcessed {
			res.TotalsMonotonic = false
		}
		prev = t
	}
	var ids []string
	sendSlice := func(bodies [][]byte) error {
		for i, body := range bodies {
			code, answer := roundTrip(rt, http.MethodPost, "/v1/jobs", body)
			if code != http.StatusAccepted && code != http.StatusOK {
				return fmt.Errorf("serving: churn submit %d: status %d: %s", i, code, answer)
			}
			if id, _ := envelope(answer); id != "" {
				ids = append(ids, id)
			}
		}
		return nil
	}

	third := len(trace) / 3
	if err := sendSlice(trace[:third]); err != nil {
		return res, err
	}
	rt.HeartbeatOnce()
	observeTotals()

	if err := rt.Join("n2"); err != nil {
		return res, err
	}
	if builds, ok := rt.NodeBuilds("n2"); ok {
		res.JoinBuilds = builds
	}
	if err := sendSlice(trace[third : 2*third]); err != nil {
		return res, err
	}
	observeTotals()

	if err := rt.Leave("n0"); err != nil {
		return res, err
	}
	observeTotals()
	if err := sendSlice(trace[2*third:]); err != nil {
		return res, err
	}

	// Drain: every accepted job must reach a terminal state via the router.
	deadline := time.Now().Add(120 * time.Second)
	for _, id := range ids {
		for {
			code, answer := roundTrip(rt, http.MethodGet, "/v1/jobs/"+id, nil)
			if _, st := envelope(answer); code == http.StatusOK && (st == "done" || st == "failed" || st == "canceled") {
				break
			}
			if time.Now().After(deadline) {
				res.Stranded++
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	observeTotals()

	s := rt.Stats()
	res.ReroutedJobs = s.ReroutedJobs
	res.NodeDownJobs = s.NodeDownJobs
	res.TenantsMoved = s.TenantsMoved
	return res, nil
}

// RunCluster drives the consistent-hash router tier over in-process murakkabd
// nodes: routed throughput scaling (1 node vs 3 nodes on the identical waited
// trace) and the churn arm. Throughput is measured in simulated time —
// completed jobs over the slowest node's sim-time makespan — so the scaling
// factor reflects how the ring divides work across nodes, not how many host
// cores the benchmark machine happens to have.
func RunCluster(opts ClusterOptions) (*ClusterResult, error) {
	waited, err := clusterTrace(opts, true)
	if err != nil {
		return nil, err
	}
	one, err := runClusterArm(1, waited)
	if err != nil {
		return nil, err
	}
	three, err := runClusterArm(3, waited)
	if err != nil {
		return nil, err
	}
	res := &ClusterResult{Jobs: len(waited), OneNode: one, ThreeNode: three}
	if one.Throughput > 0 {
		res.ScalingX = three.Throughput / one.Throughput
	}
	async, err := clusterTrace(opts, false)
	if err != nil {
		return nil, err
	}
	res.Churn, err = runChurn(async)
	if err != nil {
		return nil, err
	}
	return res, nil
}
