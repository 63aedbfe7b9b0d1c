package core

import (
	"repro/internal/cluster"
	"repro/internal/dag"
	"repro/internal/optimizer"
)

// planCacheKey renders the plan-cache key against an explicit snapshot and
// explicit generations, from the parts: what Runtime.appendPlanKey must equal
// when it renders against the live cluster's memoized capacity class
// (TestLivePlanKeyMatchesSnapshotKey).
func planCacheKey(g *dag.Graph, snap cluster.Snapshot, opts optimizer.Options, storeGen, libGen int) string {
	key := appendPlanOptions(g.AppendContent(make([]byte, 0, 256)), opts)
	return string(appendGens(appendCapacity(key, snap), storeGen, libGen))
}
