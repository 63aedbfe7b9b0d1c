package api

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"
)

// TestStatsMemoryHealth: GET /v1/stats reports live heap health — non-zero
// heap gauges and, once a collection has run, a GC cycle count and a pause
// percentile that parse as numbers (not absent fields).
func TestStatsMemoryHealth(t *testing.T) {
	s, err := NewServer(PoolConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	t.Cleanup(func() { srv.Close(); s.Close() })

	mustServe(t, srv, waitBody("tenant-mem"))
	runtime.GC() // the server is in-process: guarantee NumGC >= 1

	// Decode the raw JSON rather than PoolStats so the wire field names are
	// part of the contract.
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw struct {
		Memory struct {
			HeapAllocBytes uint64   `json:"heap_alloc_bytes"`
			HeapObjects    uint64   `json:"heap_objects"`
			NumGC          uint32   `json:"num_gc"`
			GCPauseP95Us   *float64 `json:"gc_pause_p95_us"`
		} `json:"memory"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	m := raw.Memory
	if m.HeapAllocBytes == 0 || m.HeapObjects == 0 {
		t.Fatalf("heap gauges missing: %+v", m)
	}
	if m.NumGC == 0 {
		t.Fatalf("num_gc = 0 after an explicit runtime.GC()")
	}
	// One collection is two pauses on record: the percentile is a bucket's
	// bound — positive, and nowhere near a second.
	if m.GCPauseP95Us == nil || *m.GCPauseP95Us <= 0 || *m.GCPauseP95Us > 1e6 {
		t.Fatalf("gc_pause_p95_us missing or not a pause: %+v", m)
	}
	// The process-wide reading the router takes once for all its nodes is the
	// same one a pool takes for itself.
	mem := ReadMemoryStats()
	if st := s.Pool().StatsWithMemory(mem); st.Memory != mem {
		t.Fatalf("StatsWithMemory reported %+v, was handed %+v", st.Memory, mem)
	}
	if mem.NumGC < m.NumGC || mem.HeapObjects == 0 {
		t.Fatalf("a later reading went backwards: %+v after %+v", mem, m)
	}
}

// TestHistogramQuantile: the pause percentile is nearest-rank over the
// runtime's bucket counts and reads as the upper bound of the bucket it lands
// in — the lower bound where that bucket is open-ended, zero when empty.
func TestHistogramQuantile(t *testing.T) {
	inf := math.Inf(1)
	h := func(counts ...uint64) *metrics.Float64Histogram {
		return &metrics.Float64Histogram{Counts: counts, Buckets: []float64{math.Inf(-1), 0, 1e-6, 1e-5, 1e-4, inf}}
	}
	for _, c := range []struct {
		name string
		h    *metrics.Float64Histogram
		q    float64
		want float64
	}{
		{"empty", h(0, 0, 0, 0, 0), 0.95, 0},
		{"one sample", h(0, 0, 1, 0, 0), 0.95, 1e-5},
		{"19 of 20 below", h(0, 19, 0, 1, 0), 0.95, 1e-6},
		{"18 of 20 below", h(0, 18, 0, 2, 0), 0.95, 1e-4},
		{"median", h(0, 5, 5, 0, 0), 0.5, 1e-6},
		{"open-ended top bucket", h(0, 1, 0, 0, 9), 0.95, 1e-4},
	} {
		if got := histogramQuantile(c.h, c.q); got != c.want {
			t.Errorf("%s: q%.2f = %v, want %v", c.name, c.q, got, c.want)
		}
	}
}

// TestScratchPoolCountersMonotonicAcrossRecycles: the scratch-pool and
// key-interner counters are lifetime totals folded into the pool when a
// shard is recycled, so repeated samples while shards churn must never go
// backwards — and a serving pool that ran real work must show reuse hits.
func TestScratchPoolCountersMonotonicAcrossRecycles(t *testing.T) {
	s, err := NewServer(PoolConfig{
		Shards:           1,
		RetainSimSeconds: math.Inf(1),
		MaxSeriesPoints:  64, // every busy shard overruns: recycles guaranteed
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	t.Cleanup(func() { srv.Close(); s.Close() })

	var last PoolStats
	// Six waves at least, and more (bounded) until a recycle has swapped the
	// shard: the swap runs on its own goroutine, which a loaded host can
	// leave behind the waves.
	for wave := 0; wave < 6 || (last.Recycles == 0 && wave < 60); wave++ {
		mustServe(t, srv, waitBody(fmt.Sprintf("tenant-%d", wave)))
		st := fetchStats(t, srv)
		assertTotalsMonotonic(t, fmt.Sprintf("wave %d", wave), last, st)
		last = st
	}
	st := fetchStats(t, srv)
	if st.Recycles == 0 {
		t.Fatalf("workload never recycled a shard; monotonicity across recycles untested: %+v", st)
	}
	if st.ScratchPoolMisses == 0 {
		t.Fatalf("no scratch-pool activity recorded: %+v", st)
	}
	if st.ScratchPoolHits == 0 {
		t.Fatalf("serving workload never reused pooled scratch: %+v", st)
	}
}

// TestScratchPoolRecycleRace hammers the runtime scratch pools where their
// lifecycle is most delicate: jobs submitted and canceled concurrently while
// the telemetry budget recycles shards underneath, so pooled workers and
// LLM-task barriers are retired by cancellation paths, drained shards, and
// normal completion all at once. The pools are engine-goroutine-only by
// design; this test (run under -race in CI) is the proof. Every job must
// still settle as done or canceled, and the folded counters must show the
// pools were actually exercised across the churn.
func TestScratchPoolRecycleRace(t *testing.T) {
	s, err := NewServer(PoolConfig{
		Shards:           2,
		RetainSimSeconds: math.Inf(1), // compaction off: only recycling bounds memory
		MaxSeriesPoints:  64,          // below one busy job's footprint: recycles guaranteed
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	t.Cleanup(func() { srv.Close(); s.Close() })

	const clients, perClient = 6, 5
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", c)
			for i := 0; i < perClient; i++ {
				body := fmt.Sprintf(`{
					"tenant": %q,
					"description": "Detect objects in every video scene",
					"constraint": "MIN_LATENCY",
					"inputs": [{"name": "v%d-%d.mov", "kind": "video",
					            "attrs": {"duration_s": 120, "scene_len_s": 30, "frames_per_scene": 8}}]
				}`, tenant, c, i)
				resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
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
				if i%2 == 1 {
					// Cancellation can land while the job's pooled workers
					// are mid-task; the retire-to-pool path must not race
					// the loop still running them.
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
					case "done", "canceled":
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

	st := fetchStats(t, srv)
	total := clients * perClient
	if st.Completed+st.Canceled != total || st.Failed != 0 {
		t.Fatalf("counters do not reconcile: %+v, want %d settled", st, total)
	}
	if st.Recycles == 0 {
		t.Fatalf("no shard recycled; the race this test exists for never ran: %+v", st)
	}
	if st.ScratchPoolHits == 0 || st.ScratchPoolMisses == 0 {
		t.Fatalf("scratch pools not exercised across the churn: %+v", st)
	}
}

func mustServe(t *testing.T, srv *httptest.Server, body string) {
	t.Helper()
	resp, st := postJob(t, srv, body)
	if resp.StatusCode != http.StatusOK || st.Status != "done" {
		t.Fatalf("POST /v1/jobs = %d status %q err %q", resp.StatusCode, st.Status, st.Error)
	}
}
