package api

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func fetchStats(t *testing.T, srv *httptest.Server) PoolStats {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats PoolStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return stats
}

func waitBody(tenant string) string {
	return fmt.Sprintf(`{
		"tenant": %q, "wait": true,
		"description": "Generate social media newsfeed for %s",
		"constraint": "MIN_LATENCY",
		"inputs": [{"name": %q, "kind": "user-profile"},
		           {"name": "cats", "kind": "topic"}]
	}`, tenant, tenant, tenant)
}

// TestStatsExposeTelemetryRetention: /v1/stats must surface per-shard
// telemetry points/bytes, the retention watermark, compaction progress and
// the pool recycle count; with a short retention window the watermark must
// actually advance and drop points as served history accumulates.
func TestStatsExposeTelemetryRetention(t *testing.T) {
	s, err := NewServer(PoolConfig{
		Shards:           1,
		RetainSimSeconds: 2,           // a few simulated seconds: jobs are ~3 s each
		MaxSeriesPoints:  math.MaxInt, // isolate compaction from recycling
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	t.Cleanup(func() { srv.Close(); s.Close() })

	for i := 0; i < 6; i++ {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
			strings.NewReader(waitBody("alice")))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job %d: POST = %d", i, resp.StatusCode)
		}
	}

	stats := fetchStats(t, srv)
	if len(stats.Shards) != 1 {
		t.Fatalf("shards = %d, want 1", len(stats.Shards))
	}
	sh := stats.Shards[0]
	if sh.TelemetryPoints <= 0 || sh.TelemetryBytes <= 0 {
		t.Fatalf("telemetry accounting missing: %+v", sh)
	}
	if stats.TelemetryPoints != sh.TelemetryPoints || stats.TelemetryBytes != sh.TelemetryBytes {
		t.Fatalf("pool totals %d/%d disagree with shard %d/%d",
			stats.TelemetryPoints, stats.TelemetryBytes, sh.TelemetryPoints, sh.TelemetryBytes)
	}
	if sh.WatermarkS <= 0 || sh.Epoch == 0 || sh.CompactedPoints == 0 {
		t.Fatalf("short retention never compacted: %+v", sh)
	}
	if sh.WatermarkS >= sh.SimTimeS {
		t.Fatalf("watermark %v at or beyond sim time %v", sh.WatermarkS, sh.SimTimeS)
	}
	if sh.RollupBuckets == 0 {
		t.Fatalf("no rollup buckets after compaction: %+v", sh)
	}
	if stats.Recycles != 0 {
		t.Fatalf("recycles = %d with recycling disabled", stats.Recycles)
	}
	// Full-history utilization must still answer from the rollups.
	if sh.MeanGPUUtil <= 0 {
		t.Fatalf("mean GPU util lost behind the watermark: %+v", sh)
	}
}

// TestShardRecycleKeepsServingJobs: with a telemetry budget small enough
// that every active shard overruns it, shards recycle while a concurrent
// job stream runs — and every job still completes with a full report. This
// is the drain → rebuild → swap path under fire; run with -race.
func TestShardRecycleKeepsServingJobs(t *testing.T) {
	s, err := NewServer(PoolConfig{
		Shards:           1,
		RetainSimSeconds: math.Inf(1), // compaction off: only recycling can bound memory
		MaxSeriesPoints:  64,          // below even one busy job's footprint
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	t.Cleanup(func() { srv.Close(); s.Close() })

	const clients, perClient = 6, 4
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", c)
			for i := 0; i < perClient; i++ {
				resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
					strings.NewReader(waitBody(tenant)))
				if err != nil {
					errs <- err
					return
				}
				var st JobStatusResponse
				json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || st.Status != "done" {
					errs <- fmt.Errorf("%s/%d: POST = %d status %q err %q",
						tenant, i, resp.StatusCode, st.Status, st.Error)
					return
				}
				if st.Result == nil || st.Result.TasksCompleted == 0 {
					errs <- fmt.Errorf("%s/%d: empty result", tenant, i)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Lifecycle counters are pool-level and settle before each wait:true
	// response returns, so they must reconcile immediately — even though
	// the shards that served most of these jobs have been recycled (some
	// possibly still draining).
	stats := fetchStats(t, srv)
	total := clients * perClient
	if stats.Submitted != total || stats.Completed != total {
		t.Fatalf("stats lost recycled-shard history: %+v, want %d submitted+completed",
			stats, total)
	}
	if stats.Recycles == 0 {
		t.Fatalf("budget overrun never recycled a shard: %+v", stats)
	}
	if stats.Running != 0 || stats.Queued != 0 {
		t.Fatalf("residual work after quiescence: %+v", stats)
	}
}
