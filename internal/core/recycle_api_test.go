package core_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/workflow"
	"repro/internal/workload"
)

// reuseCounters are the /v1/stats fields that count allocation reuse itself:
// they differ between the two arms by definition. memory and uptime_s are
// wall-clock readings.
var reuseCounters = map[string]bool{
	"key_intern_hits": true, "key_intern_misses": true, "scratch_pool_hits": true, "scratch_pool_misses": true,
	"memory": true, "uptime_s": true,
}

func dropReuseCounters(v any) {
	switch v := v.(type) {
	case map[string]any:
		for k, e := range v {
			if reuseCounters[k] {
				delete(v, k)
			} else {
				dropReuseCounters(e)
			}
		}
	case []any:
		for _, e := range v {
			dropReuseCounters(e)
		}
	}
}

// TestServedJobsAreTheSameFromRecycledBlocks is the serving path's half of
// TestRecycledBlocksChangeNothing: one single-shard api.Server per arm — the
// record releasing every settled job's block, against one built under noReuse —
// serves the same sequence one job at a time, and every response byte
// (envelopes, results, timelines, polls) and /v1/stats but for the reuse
// counters must agree. The sequence mixes ServiceMix traffic with the ledger's
// large shapes, so a 240-node job's block is re-cut for 3-node jobs and back;
// every fifth job renders its timeline and every seventh is polled. Like every
// test of this binary it runs with released blocks poisoned.
func TestServedJobsAreTheSameFromRecycledBlocks(t *testing.T) {
	arrivals, err := workload.PoissonTrace(workload.ServiceMix(), 100, 80, 31)
	if err != nil || len(arrivals) < 120 {
		t.Fatalf("trace: %d arrivals, %v", len(arrivals), err)
	}
	jobs := []workflow.Job{}
	for i, a := range arrivals[:120] {
		jobs = append(jobs, a.Job)
		if i%20 == 10 {
			jobs = append(jobs, timelineShapes()[i/20%3])
		}
	}
	serve := func(reuse bool) (string, int) {
		var cfg core.Config
		cfg.SetNoReuse(!reuse)
		s, err := api.NewServerWith(api.PoolConfig{Shards: 1}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var log strings.Builder
		for i, job := range jobs {
			req := api.JobRequest{
				Tenant: "alice", Description: job.Description, Constraint: job.Constraint.String(),
				MinQuality: job.MinQuality, Tasks: job.Tasks, Wait: i%7 != 3, Timeline: i%5 == 0,
			}
			for _, in := range job.Inputs {
				req.Inputs = append(req.Inputs, api.InputRequest{Name: in.Name, Kind: string(in.Kind), Attrs: in.Attrs})
			}
			rp := s.Submit(context.Background(), req)
			for rp.Err == nil && rp.Job.Status != core.JobDone.String() && rp.Job.Error == "" {
				runtime.Gosched()
				rp = s.Status(rp.Job.ID)
			}
			if rp.Err != nil || rp.Job.Status != core.JobDone.String() {
				t.Fatalf("job %d: %d %v %+v", i, rp.Code, rp.Err, rp.Job)
			}
			rec := httptest.NewRecorder()
			rp.Write(rec)
			fmt.Fprintf(&log, "== job %d\n%s", i, rec.Body.String())
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
		var stats map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
			t.Fatalf("/v1/stats: %v", err)
		}
		hits, _ := stats["scratch_pool_hits"].(float64)
		dropReuseCounters(stats)
		b, err := json.Marshal(stats)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&log, "== stats\n%s\n", b)
		return log.String(), int(hits)
	}
	want, refHits := serve(false)
	got, hits := serve(true)
	if refHits != 0 || hits == 0 {
		t.Fatalf("scratch pool hits: %d on the reference arm, %d on the recycling arm", refHits, hits)
	}
	if got != want {
		gl, wl := strings.SplitAfter(got, "\n"), strings.SplitAfter(want, "\n")
		for i := range max(len(gl), len(wl)) {
			if i >= len(gl) || i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("line %d differs between the arms\nrecycling: %q\nreference: %q", i+1, lineAt(gl, i), lineAt(wl, i))
			}
		}
	}
}
