package router

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/profiles"
)

// DefaultDrainDeadline bounds how long Leave waits for a departing node's
// in-flight jobs before rerouting what is still queued and typing what is
// still running as node_down.
const DefaultDrainDeadline = 30 * time.Second

// defaultJobHistory bounds the router's routed-job registry; the oldest
// entries are evicted first (a GET for an evicted ID falls back to probing
// the nodes directly).
const defaultJobHistory = 1 << 16

// Config sizes a Router.
type Config struct {
	// Nodes is the initial node count (default 1); nodes are named
	// "n0".."n{N-1}" and built from the Node template.
	Nodes int
	// Node is the per-node pool configuration. JobIDNamespace and
	// ProfileRegistry must be empty — the router owns both (each node mints
	// IDs under its own name and profiles replicate through the router's
	// canonical registry).
	Node api.PoolConfig
	// VNodes is the ring's virtual-node count per node (default
	// DefaultVNodes); Seed seeds ring placement.
	VNodes int
	Seed   int64
	// DrainDeadline bounds Leave's wait for in-flight jobs. 0 selects
	// DefaultDrainDeadline; negative expires immediately (every outstanding
	// job takes the reroute/node_down path — the harness uses this to pin
	// the deadline behaviour deterministically).
	DrainDeadline time.Duration
	// JobHistoryLimit bounds the routed-job registry (default 65536).
	JobHistoryLimit int
}

// node is one cluster member: an in-process api.Server, whose typed cores the
// router calls directly, plus the router's view of its health.
type node struct {
	name string
	srv  *api.Server
	reg  *profiles.Registry
	// healthy is the last heartbeat verdict; draining is set by Leave.
	// Both are guarded by the router mutex.
	healthy  bool
	draining bool
	// lastBeatSimS is the node's max shard sim-time at the last heartbeat —
	// the harness's sim-time liveness stamp.
	lastBeatSimS float64
}

// jobEntry tracks one routed job: which node owns it, the decoded request
// (retained until the job is observed terminal, so a queued job can re-enter
// a surviving node if its node leaves), and any terminal reply the router
// itself imposed (node_down, or the departed node's final state).
type jobEntry struct {
	id     string
	node   string
	tenant string
	req    *api.JobRequest
	// aliasTo is the replacement ID after a reroute: reads follow it.
	aliasTo string
	// final, when set, is the cached terminal reply served for this ID after
	// its node left the cluster.
	final    *api.Reply
	terminal bool
}

// Router fronts a set of in-process murakkabd nodes with the single-node
// HTTP surface: job traffic routes by tenant over a consistent-hash ring,
// stats fan out and merge with the pool's monotonic-fold discipline, and
// join/leave reassigns only the tenants whose ring successor moved.
type Router struct {
	cfg Config
	mux *http.ServeMux

	mu    sync.Mutex
	ring  *Ring
	nodes map[string]*node
	// reg is the canonical profile registry every joining node replicates
	// from (and publishes back to), so profiling runs once cluster-wide.
	reg   *profiles.Registry
	jobs  map[string]*jobEntry
	order []string // entry IDs oldest-first, for eviction
	// tenants maps every observed tenant to its current ring owner
	// (health-blind), so membership changes can account exactly which
	// tenants moved.
	tenants map[string]string
	closed  bool

	// ret folds departed nodes' final pool counters so cluster totals stay
	// monotonic across leaves, mirroring the pool's recycled-shard fold.
	ret ClusterTotals

	// Counters (guarded by mu).
	routedSubmits, routedReads, routedCancels int64
	rerouted, nodeDownJobs                    int64
	tenantsMoved                              int64
	joins, leaves, heartbeats                 int64
	replKeys, replProfiles                    int64
}

// New builds a router over cfg.Nodes fresh in-process nodes.
func New(cfg Config) (*Router, error) {
	if cfg.Node.JobIDNamespace != "" || cfg.Node.ProfileRegistry != nil {
		return nil, fmt.Errorf("router: Node.JobIDNamespace and Node.ProfileRegistry are router-owned; leave them unset")
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.JobHistoryLimit <= 0 {
		cfg.JobHistoryLimit = defaultJobHistory
	}
	rt := &Router{
		cfg:     cfg,
		ring:    NewRing(cfg.VNodes, cfg.Seed),
		nodes:   make(map[string]*node),
		reg:     profiles.NewRegistry(),
		jobs:    make(map[string]*jobEntry),
		tenants: make(map[string]string),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.handleHealth)
	mux.HandleFunc("GET /v1/library", rt.handleLibrary)
	mux.HandleFunc("POST /v1/jobs", rt.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", rt.handleJobStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", rt.handleJobCancel)
	mux.HandleFunc("GET /v1/stats", rt.handleStats)
	rt.mux = mux
	for i := 0; i < cfg.Nodes; i++ {
		if err := rt.Join(fmt.Sprintf("n%d", i)); err != nil {
			rt.Close()
			return nil, err
		}
	}
	return rt, nil
}

// ServeHTTP implements http.Handler with the same surface as a single node.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// drainDeadline resolves the configured deadline.
func (rt *Router) drainDeadline() time.Duration {
	switch {
	case rt.cfg.DrainDeadline == 0:
		return DefaultDrainDeadline
	case rt.cfg.DrainDeadline < 0:
		return 0
	default:
		return rt.cfg.DrainDeadline
	}
}

// Join builds a fresh node, warms its profile registry by replication from
// the cluster's canonical registry (content-keyed generation deltas — no
// re-profiling), adds it to the ring, and accounts exactly which observed
// tenants the ring reassigned to it.
func (rt *Router) Join(name string) error {
	if name == "" {
		return fmt.Errorf("router: empty node name")
	}
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return fmt.Errorf("router: closed")
	}
	if _, ok := rt.nodes[name]; ok {
		rt.mu.Unlock()
		return fmt.Errorf("router: node %q already present", name)
	}
	rt.mu.Unlock()

	// Warm the joining node before it builds anything: replicated keys make
	// the pool's profiling pass a registry hit, so the node provisions
	// without recomputation (its registry's build counter stays zero).
	reg := profiles.NewRegistry()
	repl := reg.ReplicateFrom(rt.reg)
	cfg := rt.cfg.Node
	cfg.JobIDNamespace = name
	cfg.ProfileRegistry = reg
	srv, err := api.NewServer(cfg)
	if err != nil {
		return fmt.Errorf("router: provisioning node %q: %w", name, err)
	}
	// Publish back whatever this node did build — the first node seeds the
	// canonical registry for everyone after it.
	rt.reg.ReplicateFrom(reg)

	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed || rt.nodes[name] != nil {
		rt.mu.Unlock()
		srv.Close()
		rt.mu.Lock()
		return fmt.Errorf("router: node %q raced a close or duplicate join", name)
	}
	rt.nodes[name] = &node{name: name, srv: srv, reg: reg, healthy: true}
	rt.ring.Add(name)
	rt.remapTenantsLocked()
	rt.joins++
	rt.replKeys += int64(repl.KeysAdded + repl.KeysUpdated)
	rt.replProfiles += int64(repl.Profiles)
	return nil
}

// Leave removes a node: the ring reassigns its tenants (and only its
// tenants), in-flight jobs drain against the deadline, still-queued jobs
// re-enter surviving nodes, still-running jobs are canceled and typed
// node_down, and the node's final counters fold into the cluster's retired
// totals so /v1/stats stays monotonic.
func (rt *Router) Leave(name string) error {
	rt.mu.Lock()
	n, ok := rt.nodes[name]
	if !ok || n.draining {
		rt.mu.Unlock()
		return fmt.Errorf("router: node %q not present", name)
	}
	live := 0
	for _, m := range rt.nodes {
		if !m.draining {
			live++
		}
	}
	if live <= 1 {
		rt.mu.Unlock()
		return fmt.Errorf("router: refusing to remove the last node %q", name)
	}
	n.draining = true
	rt.ring.Remove(name)
	rt.remapTenantsLocked()
	var outstanding []*jobEntry
	for _, e := range rt.jobs {
		if e.node == name && !e.terminal && e.aliasTo == "" && e.final == nil {
			outstanding = append(outstanding, e)
		}
	}
	sort.Slice(outstanding, func(i, j int) bool { return outstanding[i].id < outstanding[j].id })
	rt.mu.Unlock()

	// Phase 1: give in-flight work the drain deadline.
	pool := n.srv.Pool()
	if deadline := rt.drainDeadline(); deadline > 0 && len(outstanding) > 0 {
		timer := time.NewTimer(deadline)
		for _, e := range outstanding {
			ch, ok := pool.Done(e.id)
			if !ok {
				continue
			}
			expired := false
			select {
			case <-ch:
			case <-timer.C:
				expired = true
			}
			if expired {
				break
			}
		}
		timer.Stop()
	}

	// Phase 2: classify what outlived the deadline, then cancel it. Queued
	// jobs re-enter a surviving node (the capacity-event path: cancel on the
	// departing node, resubmit the retained request); running jobs cancel
	// and surface the typed node_down error. Every queued job is canceled
	// before any running one: a canceled running job frees its slot, and the
	// shard would admit the next queued job into it.
	type expiredJob struct {
		e *jobEntry
		// req is set when the job was still queued: it re-enters elsewhere.
		req *api.JobRequest
	}
	var expired, running []expiredJob
	for _, e := range outstanding {
		st, ok := pool.Get(e.id)
		if !ok || st.Status.Terminal() {
			continue
		}
		if st.Status != core.JobQueued {
			running = append(running, expiredJob{e: e})
			continue
		}
		// Snapshot the retained request under the lock before canceling: a
		// concurrent status read that observes the cancel settle drops e.req,
		// and the resubmit below must not race that.
		rt.mu.Lock()
		expired = append(expired, expiredJob{e: e, req: e.req})
		rt.mu.Unlock()
	}
	expired = append(expired, running...)
	for _, x := range expired {
		pool.Cancel(x.e.id)
	}

	// Close drains everything that remains to completion, so every job on
	// the node is terminal before its final state is captured below.
	n.srv.Close()

	for _, x := range expired {
		// Re-check now that the node is fully drained: a job that raced to
		// a genuine terminal state (done, or failed on its own) drained
		// fine — rerouting would run it twice and node_down would be a lie.
		// Likewise one whose entry already settled through the client path
		// (a concurrent DELETE beat our drain cancel): the client saw the
		// canceled response, so the record stands as-is. Only jobs our
		// cancel actually stopped take the handoff paths.
		st, ok := pool.Get(x.e.id)
		if ok && (st.Status == core.JobDone || st.Status == core.JobFailed) {
			continue
		}
		rt.mu.Lock()
		settled := x.e.terminal || x.e.aliasTo != "" || x.e.final != nil
		rt.mu.Unlock()
		if settled {
			continue
		}
		if x.req != nil && rt.resubmit(x.e, x.req) {
			continue
		}
		rt.overrideNodeDown(n, x.e)
	}

	// Phase 3: cache every remaining entry's final reply so history stays
	// queryable after the node is gone, then fold the node's final counters
	// into the retired totals and drop it.
	rt.mu.Lock()
	var remaining []*jobEntry
	for _, e := range rt.jobs {
		if e.node == name && e.aliasTo == "" && e.final == nil {
			remaining = append(remaining, e)
		}
	}
	rt.mu.Unlock()
	for _, e := range remaining {
		rp := n.srv.Status(e.id)
		rt.settle(e, &rp)
	}

	final := pool.Stats()
	rt.mu.Lock()
	rt.ret.addPool(final)
	delete(rt.nodes, name)
	rt.leaves++
	rt.mu.Unlock()
	return nil
}

// resubmit re-enters an expired queued job on a surviving node and aliases
// the old ID to the new one. It reports whether a node took the job.
func (rt *Router) resubmit(e *jobEntry, req *api.JobRequest) bool {
	// The original caller is long gone: never block the leave on the job.
	again := *req
	again.Wait = false
	rp, n := rt.routeSubmit(context.TODO(), &again)
	if n == nil || rp.Code != http.StatusAccepted {
		return false
	}
	rt.mu.Lock()
	rt.registerLocked(n.name, &again, rp.Job)
	e.aliasTo = rp.Job.ID
	e.terminal = true
	e.req = nil
	rt.rerouted++
	rt.mu.Unlock()
	return true
}

// overrideNodeDown caches a node_down terminal reply for a job that was
// still in flight on a departed node when the drain deadline expired.
func (rt *Router) overrideNodeDown(n *node, e *jobEntry) {
	rp := n.srv.Status(e.id)
	if rp.Code != http.StatusOK {
		rp = api.Reply{Code: http.StatusOK, Job: api.JobStatusResponse{ID: e.id, Tenant: e.tenant, Shard: -1}}
	}
	rp.Job.Status = core.JobFailed.String()
	rp.Job.Error = fmt.Sprintf("core: job: node_down: node %q left the cluster before the job finished (drain deadline expired)", n.name)
	rp.Job.ErrorCode = string(core.CodeNodeDown)
	rt.settle(e, &rp)
	rt.mu.Lock()
	rt.nodeDownJobs++
	rt.mu.Unlock()
}

// remapTenantsLocked recomputes every observed tenant's ring owner after a
// membership change and counts the moves — the minimal-disruption ledger.
func (rt *Router) remapTenantsLocked() {
	for tenant, owner := range rt.tenants {
		now, ok := rt.ring.NodeFor(tenant)
		if !ok {
			continue
		}
		if now != owner {
			rt.tenants[tenant] = now
			rt.tenantsMoved++
		}
	}
}

// SetNodeHealth force-marks a node's health (the harness's fault lever);
// heartbeats overwrite it. It reports whether the node exists.
func (rt *Router) SetNodeHealth(name string, healthy bool) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	n, ok := rt.nodes[name]
	if !ok {
		return false
	}
	n.healthy = healthy
	return true
}

// HeartbeatOnce asks every node whether its pool still admits work, stamps
// each node with its current sim time, and returns how many nodes are up.
func (rt *Router) HeartbeatOnce() int {
	rt.mu.Lock()
	members := make([]*node, 0, len(rt.nodes))
	for _, n := range rt.nodes {
		members = append(members, n)
	}
	rt.heartbeats++
	rt.mu.Unlock()
	sort.Slice(members, func(i, j int) bool { return members[i].name < members[j].name })
	up := 0
	for _, n := range members {
		healthy := !n.srv.Pool().Closed()
		simS := maxShardSimS(n.srv.Pool().Stats())
		rt.mu.Lock()
		n.healthy = healthy
		n.lastBeatSimS = simS
		rt.mu.Unlock()
		if healthy {
			up++
		}
	}
	return up
}

// maxShardSimS is a node's sim-time high-water mark across its shards.
func maxShardSimS(ps api.PoolStats) float64 {
	max := 0.0
	for _, sh := range ps.Shards {
		if sh.SimTimeS > max {
			max = sh.SimTimeS
		}
	}
	return max
}

// NodeBuilds returns how many profile builds a node actually ran — zero for
// a node warmed by replication.
func (rt *Router) NodeBuilds(name string) (int, bool) {
	rt.mu.Lock()
	n, ok := rt.nodes[name]
	rt.mu.Unlock()
	if !ok {
		return 0, false
	}
	return n.reg.Builds(), true
}

// Close drains every node. Safe to call more than once.
func (rt *Router) Close() {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return
	}
	rt.closed = true
	members := make([]*node, 0, len(rt.nodes))
	for _, n := range rt.nodes {
		members = append(members, n)
	}
	rt.mu.Unlock()
	sort.Slice(members, func(i, j int) bool { return members[i].name < members[j].name })
	for _, n := range members {
		n.srv.Close()
	}
}

// registerLocked records a routed job from the envelope its node answered
// with. Callers hold rt.mu.
func (rt *Router) registerLocked(nodeName string, req *api.JobRequest, job api.JobStatusResponse) {
	e := &jobEntry{id: job.ID, node: nodeName, tenant: req.Tenant}
	if terminalStatus(job.Status) {
		e.terminal = true
	} else {
		// Retain the request so a leave can re-enter the job elsewhere;
		// terminal jobs need only the routing hint.
		e.req = req
	}
	rt.jobs[e.id] = e
	rt.order = append(rt.order, e.id)
	for len(rt.jobs) > rt.cfg.JobHistoryLimit && len(rt.order) > 0 {
		oldest := rt.order[0]
		rt.order = rt.order[1:]
		delete(rt.jobs, oldest)
	}
}
