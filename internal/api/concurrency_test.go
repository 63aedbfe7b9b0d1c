package api

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// TestConcurrentSubmissionsShareRuntimePool fires parallel POST /v1/jobs plus
// status polls and stats reads against one shared runtime pool. Run with
// -race (CI does): it asserts both data-race freedom across the HTTP surface,
// the shard loops and the job registry, and consistency of the final reports
// and counters.
func TestConcurrentSubmissionsShareRuntimePool(t *testing.T) {
	s, err := NewServer(PoolConfig{Shards: 2, MaxConcurrentPerShard: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	t.Cleanup(func() { srv.Close(); s.Close() })

	tenants := []string{"alice", "bob", "carol", "dave", "erin", "frank"}
	const jobsPerTenant = 3

	// Jobs within a tenant are structurally identical, so the shard's
	// decomposition/plan caches must serve repeats.
	newsfeedBody := func(tenant string, _ int) string {
		return fmt.Sprintf(`{
			"tenant": %q,
			"description": "Generate social media newsfeed for %s",
			"constraint": "MIN_LATENCY",
			"inputs": [{"name": %q, "kind": "user-profile"},
			           {"name": "cats", "kind": "topic"}]
		}`, tenant, tenant, tenant)
	}

	var (
		mu      sync.Mutex
		results []JobStatusResponse
	)
	var wg sync.WaitGroup
	for _, tenant := range tenants {
		for i := 0; i < jobsPerTenant; i++ {
			wg.Add(1)
			go func(tenant string, i int) {
				defer wg.Done()
				resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
					strings.NewReader(newsfeedBody(tenant, i)))
				if err != nil {
					t.Error(err)
					return
				}
				var st JobStatusResponse
				json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("%s/%d: POST = %d (%+v)", tenant, i, resp.StatusCode, st)
					return
				}
				// Poll with interleaved stats reads to stress the registry
				// and the shard loops from many goroutines at once.
				for {
					code, cur := getJob(t, srv, st.ID)
					if code != http.StatusOK {
						t.Errorf("%s/%d: GET = %d", tenant, i, code)
						return
					}
					if cur.Status == "done" || cur.Status == "failed" || cur.Status == "canceled" {
						mu.Lock()
						results = append(results, cur)
						mu.Unlock()
						return
					}
					if resp, err := http.Get(srv.URL + "/v1/stats"); err == nil {
						resp.Body.Close()
					}
				}
			}(tenant, i)
		}
	}
	wg.Wait()

	total := len(tenants) * jobsPerTenant
	if len(results) != total {
		t.Fatalf("settled %d of %d jobs", len(results), total)
	}
	byTenant := map[string]int{}
	for _, r := range results {
		if r.Status != "done" {
			t.Errorf("job %s (%s): status %s err %q", r.ID, r.Tenant, r.Status, r.Error)
			continue
		}
		if r.Result == nil || r.Result.TasksCompleted != 4 || r.Result.MakespanS <= 0 {
			t.Errorf("job %s: inconsistent report %+v", r.ID, r.Result)
		}
		byTenant[r.Tenant]++
	}
	for _, tenant := range tenants {
		if byTenant[tenant] != jobsPerTenant {
			t.Errorf("tenant %s completed %d of %d", tenant, byTenant[tenant], jobsPerTenant)
		}
	}

	// Counters must reconcile exactly once the system is quiescent.
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats PoolStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Submitted != total || stats.Completed != total {
		t.Fatalf("stats = %+v, want %d submitted+completed", stats, total)
	}
	if stats.Running != 0 || stats.Queued != 0 {
		t.Fatalf("stats show residual work: %+v", stats)
	}
	if len(stats.Shards) != 2 {
		t.Fatalf("shards = %d", len(stats.Shards))
	}
	// Repeat submissions must reuse admission work, through either cache: a
	// repeat that arrives after the first decomposition landed hits the
	// decomp cache, while one that arrives during it coalesces through the
	// plan-search singleflight instead — which path each repeat takes is a
	// scheduling race, but every repeat must take one of them.
	reuse := 0
	for _, sh := range stats.Shards {
		reuse += sh.DecompCacheHits + sh.SingleflightHits
	}
	if reuse == 0 {
		t.Error("no admission reuse (decomp cache or singleflight) across concurrent submissions")
	}
}

// TestConcurrentSubmitCancelRecycleWithPlanSearch races the full off-loop
// admission surface under -race: structurally-distinct submissions (every one
// dispatches a real plan search to the shard's worker pool) racing
// cancellations that can land while the search is still in flight, on a pool
// whose telemetry budget is small enough that shards recycle underneath both.
// Every job must settle as done or canceled — never failed, never stranded —
// and the pool-level counters must reconcile across the recycles.
func TestConcurrentSubmitCancelRecycleWithPlanSearch(t *testing.T) {
	s, err := NewServer(PoolConfig{
		Shards:                2,
		MaxConcurrentPerShard: 2,
		RetainSimSeconds:      math.Inf(1), // compaction off: force budget recycles
		MaxSeriesPoints:       64,          // below even one busy job's footprint
		PlanWorkers:           4,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	t.Cleanup(func() { srv.Close(); s.Close() })

	distinctBody := func(tenant string, c, i int) string {
		// Distinct description, topic fan-out and quality floor per
		// submission: no plan-cache or singleflight hit can absorb it, so
		// each one exercises dispatch → off-loop search → optimistic commit.
		return fmt.Sprintf(`{
			"tenant": %q,
			"description": "Generate social media newsfeed variant %d-%d",
			"constraint": "MIN_LATENCY",
			"min_quality": %.9f,
			"inputs": [{"name": %q, "kind": "user-profile"},
			           {"name": "t%d", "kind": "topic", "attrs": {"queries": %d}}]
		}`, tenant, c, i, 0.05+float64(c*100+i)*1e-9, tenant, i, 2+i%3)
	}

	const clients, perClient = 6, 5
	var (
		mu       sync.Mutex
		done     int
		canceled int
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", c)
			for i := 0; i < perClient; i++ {
				resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
					strings.NewReader(distinctBody(tenant, c, i)))
				if err != nil {
					t.Error(err)
					return
				}
				var st JobStatusResponse
				json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("%s/%d: POST = %d (%+v)", tenant, i, resp.StatusCode, st)
					return
				}
				if i%2 == 0 {
					// Cancel immediately: depending on the race this lands
					// while the plan search is in flight (queued), mid-run, or
					// after completion (409) — all must leave consistent state.
					req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+st.ID, nil)
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
						t.Errorf("%s/%d: DELETE = %d", tenant, i, resp.StatusCode)
						return
					}
				}
				for settled := false; !settled; {
					code, cur := getJob(t, srv, st.ID)
					if code != http.StatusOK {
						t.Errorf("%s/%d: GET = %d", tenant, i, code)
						return
					}
					switch cur.Status {
					case "done":
						mu.Lock()
						done++
						mu.Unlock()
						settled = true
					case "canceled":
						mu.Lock()
						canceled++
						mu.Unlock()
						settled = true
					case "failed":
						t.Errorf("%s/%d: failed: %s", tenant, i, cur.Error)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()

	total := clients * perClient
	if done+canceled != total {
		t.Fatalf("settled %d done + %d canceled of %d", done, canceled, total)
	}
	// A job canceled while its plan search is in flight settles at once; the
	// search still lands on the shard loop afterwards, and only then leaves
	// the in-flight gauge.
	stats := fetchStats(t, srv)
	for deadline := time.Now().Add(5 * time.Second); stats.PlanSearchInflight != 0 && time.Now().Before(deadline); stats = fetchStats(t, srv) {
		time.Sleep(time.Millisecond)
	}
	if stats.Submitted != total {
		t.Fatalf("submitted = %d, want %d", stats.Submitted, total)
	}
	if stats.Completed+stats.Canceled != total || stats.Failed != 0 {
		t.Fatalf("counters do not reconcile: %+v (client view: %d done, %d canceled)",
			stats, done, canceled)
	}
	if stats.Completed != done || stats.Canceled != canceled {
		t.Fatalf("pool counters %d/%d disagree with client view %d/%d",
			stats.Completed, stats.Canceled, done, canceled)
	}
	if stats.Running != 0 || stats.Queued != 0 || stats.PlanSearchInflight != 0 {
		t.Fatalf("residual work after quiescence: %+v", stats)
	}
}

// TestConcurrentSubmitCancelRecycleWithFaults is the drain-during-retry race:
// fault injection keeps stages failing into backoff while the tiny telemetry
// budget recycles shards underneath them and clients race cancels on top, all
// under -race in CI. A shard drain (recycle or Close) must join cleanly with
// retries mid-backoff — the pending retry events fire during the drain and
// run to a terminal state, so every job settles as done, canceled or failed
// (failures are legitimate here: the trace can exhaust a task's budget) and
// nothing strands or double-settles.
func TestConcurrentSubmitCancelRecycleWithFaults(t *testing.T) {
	s, err := NewServer(PoolConfig{
		Shards:                2,
		MaxConcurrentPerShard: 2,
		RetainSimSeconds:      math.Inf(1), // compaction off: force budget recycles
		MaxSeriesPoints:       64,          // below even one busy job's footprint
		PlanWorkers:           4,
		FaultRate:             0.8, // one fault per 1.25 simulated seconds
		FaultSeed:             11,
		MaxRetries:            6,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	t.Cleanup(func() { srv.Close(); s.Close() })

	if s.Pool().runtime.Recovery == nil {
		t.Fatal("recovery not enabled by MaxRetries")
	}

	distinctBody := func(tenant string, c, i int) string {
		return fmt.Sprintf(`{
			"tenant": %q,
			"description": "Generate social media newsfeed variant %d-%d",
			"constraint": "MIN_LATENCY",
			"min_quality": %.9f,
			"inputs": [{"name": %q, "kind": "user-profile"},
			           {"name": "t%d", "kind": "topic", "attrs": {"queries": %d}}]
		}`, tenant, c, i, 0.05+float64(c*100+i)*1e-9, tenant, i, 2+i%3)
	}

	const clients, perClient = 6, 5
	var (
		mu       sync.Mutex
		done     int
		canceled int
		failed   int
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", c)
			for i := 0; i < perClient; i++ {
				resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
					strings.NewReader(distinctBody(tenant, c, i)))
				if err != nil {
					t.Error(err)
					return
				}
				var st JobStatusResponse
				json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("%s/%d: POST = %d (%+v)", tenant, i, resp.StatusCode, st)
					return
				}
				if i%3 == 0 {
					// Race a cancel against retries mid-backoff: the cancel
					// must reap the pending retry events, not leak them into
					// the drain.
					req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+st.ID, nil)
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
						t.Errorf("%s/%d: DELETE = %d", tenant, i, resp.StatusCode)
						return
					}
				}
				for settled := false; !settled; {
					code, cur := getJob(t, srv, st.ID)
					if code != http.StatusOK {
						t.Errorf("%s/%d: GET = %d", tenant, i, code)
						return
					}
					switch cur.Status {
					case "done":
						mu.Lock()
						done++
						mu.Unlock()
						settled = true
					case "canceled":
						mu.Lock()
						canceled++
						mu.Unlock()
						settled = true
					case "failed":
						// A terminal failure must carry a stable code.
						if cur.ErrorCode == "" {
							t.Errorf("%s/%d: failed without error_code: %q", tenant, i, cur.Error)
						}
						mu.Lock()
						failed++
						mu.Unlock()
						settled = true
					}
				}
			}
		}(c)
	}
	wg.Wait()

	total := clients * perClient
	if done+canceled+failed != total {
		t.Fatalf("settled %d done + %d canceled + %d failed of %d", done, canceled, failed, total)
	}
	stats := fetchStats(t, srv)
	if stats.Submitted != total {
		t.Fatalf("submitted = %d, want %d", stats.Submitted, total)
	}
	if stats.Completed != done || stats.Canceled != canceled || stats.Failed != failed {
		t.Fatalf("pool counters %d/%d/%d disagree with client view %d/%d/%d",
			stats.Completed, stats.Canceled, stats.Failed, done, canceled, failed)
	}
	if stats.Running != 0 || stats.Queued != 0 || stats.PlanSearchInflight != 0 {
		t.Fatalf("residual work after quiescence: %+v", stats)
	}
	if stats.FaultsInjected == 0 {
		t.Fatal("fault trace never landed: the race has no faults to race")
	}
}

// TestConcurrentSubmitWaitCancelDrain races every way a job record is handed
// off and woken — wait:true holders on their pooled one-slot channels, holders
// whose context ends mid-wait, wait:false submit + poll, cancels that land on
// queued, running and settled jobs, SLO admission replies and sheds, and a
// router-style drain selecting on Pool.Done — on a pool whose shards recycle
// underneath. Every record must settle exactly once (the lifecycle counters
// reconcile with the records, and no Done channel closes twice), a wait:true
// reply that says the job settled must carry a terminal envelope (a waiter
// channel reused after an abandoned wait would wake its next holder early),
// and no pool total may move backwards while it runs.
func TestConcurrentSubmitWaitCancelDrain(t *testing.T) {
	s, err := NewServer(PoolConfig{
		Shards:                2,
		MaxConcurrentPerShard: 1,           // a backlog, so cancels find queued jobs
		RetainSimSeconds:      math.Inf(1), // compaction off: force budget recycles
		MaxSeriesPoints:       64,          // below even one busy job's footprint
		SLO:                   true,
		SLOQueueBound:         2, // four clients a tenant: some submissions shed
	})
	if err != nil {
		t.Fatal(err)
	}
	pool := s.Pool()
	request := func(tenant string, wait bool) JobRequest {
		return JobRequest{
			Tenant: tenant, Description: "Generate social media newsfeed for " + tenant,
			Constraint: "MIN_LATENCY", Wait: wait,
			Inputs: []InputRequest{{Name: tenant, Kind: "user-profile"}, {Name: "cats", Kind: "topic"}},
		}
	}
	terminal := func(status string) bool {
		return status == "done" || status == "failed" || status == "canceled"
	}

	// The drain: like router.RemoveNode, it selects on Pool.Done for every
	// job it hears of, before or after the job settled.
	const clients, perClient = 8, 12
	ids := make(chan string, clients*perClient)
	var drain sync.WaitGroup
	drain.Add(1)
	go func() {
		defer drain.Done()
		for id := range ids {
			ch, ok := pool.Done(id)
			if !ok {
				t.Errorf("Pool.Done(%s): unknown job", id)
				continue
			}
			<-ch
			if st, _ := pool.Get(id); !st.Status.Terminal() {
				t.Errorf("%s: Done closed on a %v job", id, st.Status)
			}
		}
	}()

	// Totals are watched for the whole run.
	stop := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		prev := pool.Stats()
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur := pool.Stats()
			assertTotalsMonotonic(t, "mid-run", prev, cur)
			prev = cur
		}
	}()

	var accepted atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", c%2)
			for i := 0; i < perClient; i++ {
				mode := (c/2 + i) % 4
				ctx, cancel := context.Background(), func() {}
				if mode == 3 {
					// A client that gives up mid-wait, sooner or later.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(i*20)*time.Microsecond)
				}
				rp := s.Submit(ctx, request(tenant, mode == 0 || mode == 3))
				cancel()
				if rp.Err != nil {
					t.Errorf("client %d job %d: %d %v", c, i, rp.Code, rp.Err)
					return
				}
				id := rp.Job.ID
				accepted.Add(1)
				ids <- id
				switch {
				case rp.Code == http.StatusTooManyRequests:
					if rp.Job.ErrorCode != string(core.CodeShedOverload) || rp.Job.Status != "failed" {
						t.Errorf("%s: 429 with %+v", id, rp.Job)
					}
				case rp.Code == http.StatusAccepted && (mode == 0 || mode == 3):
					if mode == 0 {
						t.Errorf("%s: wait:true with a live context answered 202", id)
					}
				case mode == 0 || mode == 3:
					if !terminal(rp.Job.Status) {
						t.Errorf("%s: wait:true woke with status %q (code %d)", id, rp.Job.Status, rp.Code)
					}
				case mode == 2:
					if rp := s.Cancel(id); rp.Code != http.StatusOK && rp.Code != http.StatusConflict {
						t.Errorf("%s: cancel answered %d %v", id, rp.Code, rp.Err)
					}
				}
				for st := s.Status(id); !terminal(st.Job.Status); st = s.Status(id) {
					if st.Err != nil {
						t.Errorf("%s: poll: %v", id, st.Err)
						return
					}
					runtime.Gosched()
				}
			}
		}(c)
	}
	wg.Wait()
	close(ids)
	drain.Wait()
	close(stop)
	watch.Wait()

	quiet := pool.Stats()
	if total := int(accepted.Load()); quiet.Submitted != total || quiet.Completed+quiet.Failed+quiet.Canceled != total {
		t.Fatalf("%d records, but the pool counted %d submitted and settled %d + %d + %d",
			total, quiet.Submitted, quiet.Completed, quiet.Failed, quiet.Canceled)
	}
	if quiet.Failed != quiet.SLOShed {
		t.Fatalf("%d failed jobs but %d sheds: something else failed", quiet.Failed, quiet.SLOShed)
	}
	if quiet.Running != 0 || quiet.Queued != 0 {
		t.Fatalf("residual work after quiescence: %+v", quiet)
	}
	t.Logf("%d jobs: %d done, %d canceled, %d shed, %d shard recycles",
		quiet.Submitted, quiet.Completed, quiet.Canceled, quiet.SLOShed, quiet.Recycles)
	s.Close()
	assertTotalsMonotonic(t, "across Close", quiet, pool.Stats())
}
