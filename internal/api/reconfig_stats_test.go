package api

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestStatsExposeChurnObservability verifies the fleet-churn surface of
// GET /v1/stats: pool uptime, per-shard cluster/capacity generations (the
// reconfiguration trigger), and the reconfiguration counters — all present
// in the JSON body by name, so operators can watch churn from outside.
func TestStatsExposeChurnObservability(t *testing.T) {
	srv := server(t, PoolConfig{Shards: 1, Reconfig: true, RebalancePeriodS: 30})
	resp, st := postJob(t, srv, videoJobJSON(`"tenant": "alice", "wait": true,`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job status = %d (%+v)", resp.StatusCode, st)
	}
	raw, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Body.Close()
	var buf strings.Builder
	var stats PoolStats
	if err := json.NewDecoder(io.TeeReader(raw.Body, &buf)).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, field := range []string{
		`"uptime_s"`, `"cluster_gen"`, `"capacity_gen"`,
		`"reconfigs"`, `"reconfig_wins"`, `"reconfig_skips"`, `"reconfig_conflicts"`,
	} {
		if !strings.Contains(body, field) {
			t.Errorf("stats body missing %s", field)
		}
	}
	if stats.UptimeS <= 0 {
		t.Fatalf("uptime_s = %v", stats.UptimeS)
	}
	sh := stats.Shards[0]
	// Provisioning alone moved the capacity class (one bump per AddVM), and
	// the job's allocations moved the state generation past it.
	if sh.CapacityGen == 0 || sh.ClusterGen < sh.CapacityGen {
		t.Fatalf("generations not exposed: cluster=%d capacity=%d", sh.ClusterGen, sh.CapacityGen)
	}
	// A single job on a static fleet gives the controller nothing to do —
	// but the counters must be present and consistent. An evaluation counts
	// when its off-loop search is dispatched and its outcome when that search
	// commits, which can be after the job it was for has answered: read again
	// until the commit has landed.
	for deadline := time.Now().Add(10 * time.Second); sh.Reconfigs != sh.ReconfigWins+sh.ReconfigSkips+sh.ReconfigConflicts; {
		if time.Now().After(deadline) {
			t.Fatalf("reconfig accounting leaks: %+v", sh)
		}
		sh = fetchStats(t, srv).Shards[0]
	}
}
