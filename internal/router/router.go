package router

import (
	"bytes"
	"encoding/json"
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

// node is one cluster member: an api.Server (Pool behind its mux) plus the
// router's view of its health.
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

// jobEntry tracks one routed job: which node owns it, the original request
// body (retained until the job is observed terminal, so a queued job can
// re-enter a surviving node if its node leaves), and any terminal response
// the router itself imposed (node_down, or the departed node's final state).
type jobEntry struct {
	id     string
	node   string
	tenant string
	body   []byte
	// aliasTo is the replacement ID after a reroute: reads forward there.
	aliasTo string
	// override, when set, is the cached terminal response (status code +
	// JSON body) served for this ID after its node left the cluster.
	override     []byte
	overrideCode int
	terminal     bool
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
	mux.HandleFunc("GET /v1/library", rt.handleForwardAny)
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
		if e.node == name && !e.terminal && e.aliasTo == "" && e.override == nil {
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

	// Phase 2: classify what outlived the deadline. Queued jobs re-enter a
	// surviving node (the capacity-event path: cancel on the departing node,
	// resubmit the retained body); running jobs cancel and surface the typed
	// node_down error.
	type expiredJob struct {
		e       *jobEntry
		tenant  string
		body    []byte
		reroute bool
	}
	var expired []expiredJob
	for _, e := range outstanding {
		st, ok := pool.Get(e.id)
		if !ok || st.Status.Terminal() {
			continue
		}
		// Snapshot the retained body under the lock before canceling: a
		// concurrent status read that observes the cancel settle frees
		// e.body, and the resubmit below must not race that.
		rt.mu.Lock()
		tenant, body := e.tenant, e.body
		rt.mu.Unlock()
		reroute := st.Status == core.JobQueued && body != nil
		pool.Cancel(e.id)
		expired = append(expired, expiredJob{e: e, tenant: tenant, body: body, reroute: reroute})
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
		settled := x.e.terminal || x.e.aliasTo != "" || x.e.override != nil
		rt.mu.Unlock()
		if settled {
			continue
		}
		if x.reroute {
			if newID := rt.resubmit(x.e, x.tenant, x.body); newID != "" {
				continue
			}
		}
		rt.overrideNodeDown(n, x.e)
	}

	// Phase 3: cache every remaining entry's final response so history
	// stays queryable after the node is gone, then fold the node's final
	// counters into the retired totals and drop it.
	rt.mu.Lock()
	var remaining []*jobEntry
	for _, e := range rt.jobs {
		if e.node == name && e.aliasTo == "" && e.override == nil {
			remaining = append(remaining, e)
		}
	}
	rt.mu.Unlock()
	for _, e := range remaining {
		rb := forward(n.srv, http.MethodGet, "/v1/jobs/"+e.id, nil)
		rt.mu.Lock()
		e.override = rb.buf.Bytes()
		e.overrideCode = rb.code
		e.terminal = true
		e.body = nil
		rt.mu.Unlock()
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
// the old ID to the new one. It returns the new ID, or "" if no node could
// take the job.
func (rt *Router) resubmit(e *jobEntry, tenant string, body []byte) string {
	rb, n := rt.routeSubmit(tenant, body)
	if rb == nil || rb.code != http.StatusOK && rb.code != http.StatusAccepted {
		return ""
	}
	var jr struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if json.Unmarshal(rb.buf.Bytes(), &jr) != nil || jr.ID == "" {
		return ""
	}
	rt.mu.Lock()
	rt.registerLocked(jr.ID, n.name, tenant, body, jr.Status)
	e.aliasTo = jr.ID
	e.terminal = true
	e.body = nil
	rt.rerouted++
	rt.mu.Unlock()
	return jr.ID
}

// overrideNodeDown caches a node_down terminal response for a job that was
// still in flight on a departed node when the drain deadline expired.
func (rt *Router) overrideNodeDown(n *node, e *jobEntry) {
	resp := api.JobStatusResponse{ID: e.id, Tenant: e.tenant, Shard: -1, Status: core.JobFailed.String()}
	if st, ok := n.srv.Pool().Get(e.id); ok {
		resp = statusJSON(st)
	}
	resp.Status = core.JobFailed.String()
	resp.Error = fmt.Sprintf("core: job: node_down: node %q left the cluster before the job finished (drain deadline expired)", n.name)
	resp.ErrorCode = string(core.CodeNodeDown)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	_ = enc.Encode(resp)
	rt.mu.Lock()
	e.override = buf.Bytes()
	e.overrideCode = http.StatusOK
	e.terminal = true
	e.body = nil
	rt.nodeDownJobs++
	rt.mu.Unlock()
}

// statusJSON mirrors the api server's JobState → JobStatusResponse mapping.
func statusJSON(st api.JobState) api.JobStatusResponse {
	out := api.JobStatusResponse{
		ID:            st.ID,
		Tenant:        st.Tenant,
		Shard:         st.Shard,
		Status:        st.Status.String(),
		QueueDelayS:   st.QueueDelayS,
		SubmittedSimS: st.SubmittedSimS,
		FinishedSimS:  st.FinishedSimS,
		Error:         st.Error,
		ErrorCode:     st.ErrorCode,
		Result:        st.Result,
	}
	for _, a := range st.Attempts {
		out.Attempts = append(out.Attempts, api.AttemptJSON{
			AtS:            a.AtS,
			Task:           a.Task,
			Capability:     a.Capability,
			Implementation: a.Implementation,
			Attempt:        a.Attempt,
			BackoffS:       a.BackoffS,
			Error:          a.Err,
		})
	}
	return out
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

// HeartbeatOnce probes every node's /healthz through its mux, stamps each
// live node with its current sim time, and returns how many nodes are up.
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
		rb := forward(n.srv, http.MethodGet, "/healthz", nil)
		healthy := rb.code == http.StatusOK
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

// NodeNames returns the current member names, sorted.
func (rt *Router) NodeNames() []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]string, 0, len(rt.nodes))
	for name := range rt.nodes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
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

// registerLocked records a routed job. Callers hold rt.mu.
func (rt *Router) registerLocked(id, nodeName, tenant string, body []byte, status string) {
	e := &jobEntry{id: id, node: nodeName, tenant: tenant}
	if status == "queued" || status == "running" {
		// Retain the request body so a leave can re-enter the job elsewhere;
		// terminal jobs need only the routing hint.
		e.body = body
	} else {
		e.terminal = true
	}
	rt.jobs[id] = e
	rt.order = append(rt.order, id)
	for len(rt.jobs) > rt.cfg.JobHistoryLimit && len(rt.order) > 0 {
		oldest := rt.order[0]
		rt.order = rt.order[1:]
		delete(rt.jobs, oldest)
	}
}
