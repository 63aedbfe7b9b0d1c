package router

import (
	"net/http"

	"repro/internal/api"
	"repro/internal/core"
)

// ClusterTotals is the cluster-wide fold: live nodes' pool totals plus the
// final totals of every departed node (folded at leave, the same discipline
// the pool applies to recycled shards), so every field is monotonic across
// membership changes. Submitted counts node-level admissions and therefore
// includes leave-time re-entries (a rerouted job is admitted twice); the
// router's routed_submits counter is the client-facing count.
type ClusterTotals struct {
	Submitted int `json:"submitted"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Canceled  int `json:"canceled"`
	Recycles  int `json:"recycles"`
	core.Counters
}

// addPool folds one pool's monotonic totals in.
func (t *ClusterTotals) addPool(ps api.PoolStats) {
	t.Submitted += ps.Submitted
	t.Completed += ps.Completed
	t.Failed += ps.Failed
	t.Canceled += ps.Canceled
	t.Recycles += ps.Recycles
	t.Counters.Add(ps.Counters)
}

// NodeStats is one member's row in the cluster stats fan-in.
type NodeStats struct {
	Name     string `json:"name"`
	Healthy  bool   `json:"healthy"`
	Draining bool   `json:"draining"`
	// Tenants counts observed tenants whose ring owner this node is.
	Tenants int `json:"tenants"`
	// SimTimeS is the node's sim-time high-water mark across its shards;
	// LastBeatSimS is the stamp taken at the last heartbeat.
	SimTimeS     float64       `json:"sim_time_s"`
	LastBeatSimS float64       `json:"last_beat_sim_s"`
	Pool         api.PoolStats `json:"pool"`
}

// ClusterStats is the router's /v1/stats document: the per-node fan-out plus
// merged cluster totals and the router's own routing/handoff/replication
// counters.
type ClusterStats struct {
	Mode          string      `json:"mode"` // always "cluster"
	Nodes         []NodeStats `json:"nodes"`
	NodesUp       int         `json:"nodes_up"`
	NodesDraining int         `json:"nodes_draining"`
	RingVNodes    int         `json:"ring_vnodes"`
	RingSeed      int64       `json:"ring_seed"`

	TenantsObserved int   `json:"tenants_observed"`
	TenantsMoved    int64 `json:"tenants_moved"`

	RoutedSubmits     int64 `json:"routed_submits"`
	RoutedStatusReads int64 `json:"routed_status_reads"`
	RoutedCancels     int64 `json:"routed_cancels"`
	ReroutedJobs      int64 `json:"rerouted_jobs"`
	NodeDownJobs      int64 `json:"node_down_jobs"`

	Joins      int64 `json:"joins"`
	Leaves     int64 `json:"leaves"`
	Heartbeats int64 `json:"heartbeats"`

	ProfileKeysReplicated    int64 `json:"profile_keys_replicated"`
	ProfileEntriesReplicated int64 `json:"profile_entries_replicated"`

	JobsTracked int           `json:"jobs_tracked"`
	Totals      ClusterTotals `json:"totals"`
}

// Stats fans out to every node's pool (each pool snapshot is itself taken on
// its shard loops) and merges: totals are retired folds plus live sums, so
// repeated reads are monotonic across joins, leaves and recycles.
func (rt *Router) Stats() ClusterStats {
	rt.mu.Lock()
	members := rt.membersLocked()
	tenantsPerNode := make(map[string]int, len(members))
	for _, owner := range rt.tenants {
		tenantsPerNode[owner]++
	}
	out := ClusterStats{
		Mode:                     "cluster",
		RingVNodes:               rt.ring.vnodes,
		RingSeed:                 rt.cfg.Seed,
		TenantsObserved:          len(rt.tenants),
		TenantsMoved:             rt.tenantsMoved,
		RoutedSubmits:            rt.routedSubmits,
		RoutedStatusReads:        rt.routedReads,
		RoutedCancels:            rt.routedCancels,
		ReroutedJobs:             rt.rerouted,
		NodeDownJobs:             rt.nodeDownJobs,
		Joins:                    rt.joins,
		Leaves:                   rt.leaves,
		Heartbeats:               rt.heartbeats,
		ProfileKeysReplicated:    rt.replKeys,
		ProfileEntriesReplicated: rt.replProfiles,
		JobsTracked:              len(rt.jobs),
		Totals:                   rt.ret,
	}
	rt.mu.Unlock()

	mem := api.ReadMemoryStats() // the nodes share this process: one reading serves every row
	for _, n := range members {
		ps := n.srv.Pool().StatsWithMemory(mem)
		rt.mu.Lock()
		row := NodeStats{
			Name:         n.name,
			Healthy:      n.healthy,
			Draining:     n.draining,
			Tenants:      tenantsPerNode[n.name],
			SimTimeS:     maxShardSimS(ps),
			LastBeatSimS: n.lastBeatSimS,
			Pool:         ps,
		}
		rt.mu.Unlock()
		out.Nodes = append(out.Nodes, row)
		if row.Healthy && !row.Draining {
			out.NodesUp++
		}
		if row.Draining {
			out.NodesDraining++
		}
		out.Totals.addPool(ps)
	}
	return out
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, rt.Stats())
}
