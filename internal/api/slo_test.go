package api

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// sloServer starts a shared-mode daemon with SLO tiers on and the given
// per-tenant queue bound, sized so one slow slot builds real queue pressure.
func sloServer(t *testing.T, cfg PoolConfig) *httptest.Server {
	t.Helper()
	cfg.SLO = true
	return server(t, cfg)
}

// qualityJobJSON is a MAX_QUALITY video job: the plans pick the large
// high-quality models, so admission-time degradation has real headroom and
// planning is heavy enough that submissions queue behind it.
func qualityJobJSON(tenant, extra string) string {
	return fmt.Sprintf(`{
		"tenant": %q,%s
		"description": "List objects shown in the videos",
		"constraint": "MAX_QUALITY",
		"inputs": [{"name": "a.mov", "kind": "video",
		            "attrs": {"duration_s": 120, "scene_len_s": 30, "frames_per_scene": 24}}]
	}`, tenant, extra)
}

// TestErrorCodeEnumWireRoundTrip fabricates a settled job for every stable
// error code — including this PR's shed_overload and budget_exhausted — and
// asserts each round-trips through the GET /v1/jobs/{id} JSON wire format
// verbatim. The raw-substring check makes the wire spelling itself the
// contract, not just Go-side symmetry.
func TestErrorCodeEnumWireRoundTrip(t *testing.T) {
	s, err := NewServer(PoolConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	t.Cleanup(func() { srv.Close(); s.Close() })

	codes := []core.ErrorCode{
		core.CodeRetriesExhausted,
		core.CodeDeadlineExceeded,
		core.CodeWindowCompacted,
		core.CodeCanceled,
		core.CodeTaskFailed,
		core.CodeShedOverload,
		core.CodeBudgetExhausted,
		core.CodeNodeDown,
		core.CodeInternal,
	}
	pool := s.Pool()
	for i, code := range codes {
		rec := &jobRecord{
			id:     fmt.Sprintf("job-code-%d", i),
			tenant: "enum",
			sh:     pool.shards[0],
		}
		pool.mu.Lock()
		pool.jobs[rec.id] = rec
		pool.mu.Unlock()
		// Records settle on their shard's loop.
		rec.sh.loop.Post(func() { rec.settle(core.JobFailed, &core.JobError{Code: code, Op: "synthetic"}, nil) })
		<-rec.Done()
	}
	for i, code := range codes {
		resp, err := http.Get(srv.URL + fmt.Sprintf("/v1/jobs/job-code-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: GET = %d", code, resp.StatusCode)
		}
		want := fmt.Sprintf(`"error_code":%q`, code)
		if !strings.Contains(string(raw), want) {
			t.Fatalf("%s: wire body missing %s: %s", code, want, raw)
		}
		var st JobStatusResponse
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		if st.ErrorCode != string(code) || st.Status != "failed" {
			t.Fatalf("%s: decoded error_code %q status %q", code, st.ErrorCode, st.Status)
		}
	}
}

// TestSLOShedReturns429 drives one tenant past its queue bound: the excess
// submissions must come back 429 with Retry-After and a settled, pollable
// job envelope carrying shed_overload — never an unbounded queue, never a
// strand.
func TestSLOShedReturns429(t *testing.T) {
	srv := sloServer(t, PoolConfig{
		Shards:                1,
		MaxConcurrentPerShard: 1,
		SLOQueueBound:         1,
		SLOTenantTiers:        map[string]string{"burst": "bronze"},
	})

	// Concurrent burst: the first submission to reach the shard holds the
	// single queue slot, and the rest find the bound reached. Sequential posts
	// would let each job start (freeing the slot) before the next arrives —
	// and so would a burst whose posts the scheduler happens to space out by
	// more than a job's run, which an hour-long video stopped guaranteeing
	// once a job ran in well under a millisecond. So the shard's loop is held
	// until every submission of the burst sits in its inbox: they are then
	// admitted in one turn, before the simulation takes a step.
	const n = 8
	body := strings.Replace(qualityJobJSON("burst", ""), `"duration_s": 120`, `"duration_s": 3600`, 1)
	pool := srv.Config.Handler.(*Server).pool
	gate := make(chan struct{})
	if !pool.shards[0].loop.Post(func() { <-gate }) {
		t.Fatal("shard loop refused the gate")
	}
	go func() {
		defer close(gate)
		for deadline := time.Now().Add(10 * time.Second); pool.submitted.Load() < n && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}()
	var mu sync.Mutex
	var accepted, shed []string
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			var st JobStatusResponse
			json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusAccepted:
				mu.Lock()
				accepted = append(accepted, st.ID)
				mu.Unlock()
			case http.StatusTooManyRequests:
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
					return
				}
				if st.ErrorCode != string(core.CodeShedOverload) || st.Status != "failed" {
					t.Errorf("shed envelope = status %q code %q", st.Status, st.ErrorCode)
					return
				}
				mu.Lock()
				shed = append(shed, st.ID)
				mu.Unlock()
			default:
				t.Errorf("POST = %d (%+v)", resp.StatusCode, st)
			}
		}()
	}
	wg.Wait()
	if len(accepted) == 0 {
		t.Fatal("no submission admitted")
	}
	if len(shed) == 0 {
		t.Fatal("queue bound 1 never shed in a concurrent burst of 8")
	}
	// Shed jobs are terminal immediately and stay pollable by id.
	for _, id := range shed {
		code, st := getJob(t, srv, id)
		if code != http.StatusOK || st.Status != "failed" || st.ErrorCode != string(core.CodeShedOverload) {
			t.Fatalf("shed job %s: GET = %d status %q code %q", id, code, st.Status, st.ErrorCode)
		}
	}
	for _, id := range accepted {
		if st := pollDone(t, srv, id); st.Status != "done" {
			t.Fatalf("admitted job %s = %q (%s)", id, st.Status, st.Error)
		}
	}
	st := fetchStats(t, srv)
	if st.SLOShed != len(shed) || st.Completed != len(accepted) {
		t.Fatalf("stats shed %d completed %d, want %d/%d", st.SLOShed, st.Completed, len(shed), len(accepted))
	}
	if len(st.TenantSLO) != 1 || st.TenantSLO[0].Tenant != "burst" ||
		st.TenantSLO[0].Class != "bronze" || st.TenantSLO[0].Shed != len(shed) {
		t.Fatalf("tenant rows = %+v", st.TenantSLO)
	}
}

// TestSLOClassValidation: slo_class is rejected without SLO tiers and for
// unknown names; a valid per-job override rides an admitted submission.
func TestSLOClassValidation(t *testing.T) {
	plain := defaultServer(t)
	resp, _ := postJob(t, plain, qualityJobJSON("v", `"slo_class": "gold",`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("slo_class without -slo: POST = %d", resp.StatusCode)
	}

	srv := sloServer(t, PoolConfig{Shards: 1})
	resp, _ = postJob(t, srv, qualityJobJSON("v", `"slo_class": "platinum",`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown slo_class: POST = %d", resp.StatusCode)
	}
	resp, st := postJob(t, srv, qualityJobJSON("v", `"slo_class": "gold", "wait": true,`))
	if resp.StatusCode != http.StatusOK || st.Status != "done" {
		t.Fatalf("gold override: POST = %d status %q err %q", resp.StatusCode, st.Status, st.Error)
	}
}

// TestSLOCountersMonotonicAcrossRecycles extends the recycle-monotonicity
// pattern to the SLO counters: per-tenant attainment and shed/degrade
// accounting fold into the pool when a displaced shard finishes draining,
// so samples taken while shards churn must never go backwards.
func TestSLOCountersMonotonicAcrossRecycles(t *testing.T) {
	srv := sloServer(t, PoolConfig{
		Shards:                1,
		MaxConcurrentPerShard: 1,
		RetainSimSeconds:      math.Inf(1),
		MaxSeriesPoints:       64, // every busy shard overruns: recycles guaranteed
		SLOQueueBound:         1,
		SLOTenantTiers:        map[string]string{"churn": "bronze"},
	})

	var last PoolStats
	totalShed := 0
	// Six waves at least, and more (bounded) until one has shed: on a loaded
	// host a burst's POSTs can arrive further apart than a job runs.
	for wave := 0; wave < 6 || (totalShed == 0 && wave < 60); wave++ {
		// Concurrent wait:true submissions: one runs, one queues, the rest
		// shed on the bound — every wave exercises both outcomes while the
		// tight series budget recycles the shard underneath.
		const burst = 4
		var wg sync.WaitGroup
		var mu sync.Mutex
		for i := 0; i < burst; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
					strings.NewReader(qualityJobJSON("churn", `"wait": true,`)))
				if err != nil {
					t.Error(err)
					return
				}
				var st JobStatusResponse
				json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
				case http.StatusTooManyRequests:
					if st.ErrorCode != string(core.CodeShedOverload) {
						t.Errorf("429 code = %q", st.ErrorCode)
						return
					}
					mu.Lock()
					totalShed++
					mu.Unlock()
				default:
					t.Errorf("POST = %d (%+v)", resp.StatusCode, st)
				}
			}()
		}
		wg.Wait()
		st := fetchStats(t, srv)
		assertTotalsMonotonic(t, fmt.Sprintf("wave %d", wave), last, st)
		last = st
	}
	st := fetchStats(t, srv)
	if st.Recycles == 0 {
		t.Fatalf("workload never recycled a shard; monotonicity across recycles untested: %+v", st)
	}
	if st.SLOShed == 0 || totalShed == 0 {
		t.Fatalf("queue bound never shed across the waves (stats %d, observed %d)", st.SLOShed, totalShed)
	}
	if st.SLOShed != totalShed {
		t.Fatalf("pool shed counter %d != observed 429s %d", st.SLOShed, totalShed)
	}
	if st.SLOMet+st.SLOMissed == 0 {
		t.Fatal("no completions classified against the latency target")
	}
}

// TestShedUnderRecycleRace hammers one SLO-bounded tenant with concurrent
// clients while tight retention churns the shard underneath (run with -race,
// as CI does): every submission must either complete or come back as a typed
// shed, the counters must reconcile exactly, and nothing may strand.
func TestShedUnderRecycleRace(t *testing.T) {
	srv := sloServer(t, PoolConfig{
		Shards:                1,
		MaxConcurrentPerShard: 2,
		RetainSimSeconds:      math.Inf(1),
		MaxSeriesPoints:       64,
		SLOQueueBound:         2,
	})

	const clients, perClient = 6, 4
	var wg sync.WaitGroup
	var mu sync.Mutex
	done, shed := 0, 0
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
					strings.NewReader(qualityJobJSON("stampede", `"wait": true,`)))
				if err != nil {
					t.Error(err)
					return
				}
				var st JobStatusResponse
				json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					mu.Lock()
					done++
					mu.Unlock()
				case http.StatusTooManyRequests:
					if st.Status != "failed" || st.ErrorCode != string(core.CodeShedOverload) {
						t.Errorf("shed envelope = status %q code %q", st.Status, st.ErrorCode)
						return
					}
					mu.Lock()
					shed++
					mu.Unlock()
				default:
					t.Errorf("client %d: POST = %d (%+v)", c, resp.StatusCode, st)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	st := fetchStats(t, srv)
	if done+shed != clients*perClient {
		t.Fatalf("%d done + %d shed != %d submissions", done, shed, clients*perClient)
	}
	if st.Completed != done || st.Failed != shed || st.SLOShed != shed {
		t.Fatalf("counters do not reconcile: completed %d/%d failed %d shed %d/%d",
			st.Completed, done, st.Failed, st.SLOShed, shed)
	}
	if st.Running != 0 || st.Queued != 0 {
		t.Fatalf("stranded work after settle: running %d queued %d", st.Running, st.Queued)
	}
}
