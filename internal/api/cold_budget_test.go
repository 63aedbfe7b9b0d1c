package api

import (
	"context"
	"net/http"
	"testing"

	"repro/internal/workflow"
	"repro/internal/workload"
)

// TestColdSubmitAllocBudget holds a cold admission — a job of a shape the
// shard has never seen, so both the decomposition and the plan cache miss and
// Server.Submit pays decompose, freeze, plan search, launch and the settled
// envelope — to a host-independent allocation budget. Each measured run
// submits a fresh video, newsfeed and document-QA job, serially, on one shard;
// a work attribute that grows with the run index makes every DAG new. The
// budget is the measured 31.7 allocations per job + 1; the same jobs cost 40.7
// before decision labels went through an interner and the ReAct trace was
// rendered on read.
func TestColdSubmitAllocBudget(t *testing.T) {
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("sync.Pool drops items under the race detector; coverage counters allocate")
	}
	const budget = 32.7
	s, err := NewServer(PoolConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()

	// Triple k is fresh for every k. The requests are built up front, so the
	// count is Submit's alone; the first 32 triples bring the engines up and
	// grow the history and the caches past their first sizes.
	const warm, runs = 32, 100
	var reqs []JobRequest
	for k := 1; k <= warm+runs+1; k++ { // AllocsPerRun runs once more, unmeasured
		feed := workload.NewsfeedJob("ann", 1+k%8, workflow.MinPower)
		feed.Inputs[1].Attrs["queries"] = float64(k)
		for _, job := range []workflow.Job{
			workload.VideoJob(1, 1+k%6, float64(10+k), 6+k%30, workflow.MinCost),
			feed,
			workload.DocQAJob(1+k%6, float64(200+k), workflow.MinCost),
		} {
			reqs = append(reqs, requestFor(workload.Arrival{Tenant: "ann", Job: job}))
		}
	}
	triple := func() {
		for _, req := range reqs[:3] {
			if rp := s.Submit(ctx, req); rp.Code != http.StatusOK {
				t.Fatalf("cold submit answered %d: %v %s", rp.Code, rp.Err, rp.Job.Error)
			}
		}
		reqs = reqs[3:]
	}
	for range warm {
		triple()
	}
	got := testing.AllocsPerRun(runs, triple) / 3
	if sh := s.pool.Stats().Shards[0]; sh.PlanCacheHits != 0 || sh.DecompCacheHits != 0 {
		t.Fatalf("a fresh shape hit a cache: %d plan hits, %d decomposition hits", sh.PlanCacheHits, sh.DecompCacheHits)
	}
	if got > budget {
		t.Errorf("cold admission: %.1f allocations per job, budget %.1f", got, budget)
	}
	t.Logf("cold admission: %.1f allocations per job (budget %.1f)", got, budget)
}
