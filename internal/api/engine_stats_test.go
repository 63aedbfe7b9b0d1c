package api

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestStatsExposeEventEngineCounters: GET /v1/stats surfaces the sim
// engine's event accounting per shard and pool-wide — events fired, the
// timer-wheel vs overflow-heap routing split, lazy cancels, and the
// pending-queue high-water mark. Decodes raw JSON so the wire field names
// are part of the contract.
func TestStatsExposeEventEngineCounters(t *testing.T) {
	s, err := NewServer(PoolConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	t.Cleanup(func() { srv.Close(); s.Close() })

	mustServe(t, srv, waitBody("tenant-engine"))

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	type engineCounters struct {
		EventsProcessed *uint64 `json:"events_processed"`
		WheelEvents     *uint64 `json:"wheel_events"`
		OverflowEvents  *uint64 `json:"overflow_events"`
		CancelsLazy     *uint64 `json:"cancels_lazy"`
		PeakPending     *int    `json:"peak_pending"`
	}
	var raw struct {
		engineCounters
		Shards []engineCounters `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	check := func(where string, c engineCounters) {
		t.Helper()
		if c.EventsProcessed == nil || c.WheelEvents == nil ||
			c.OverflowEvents == nil || c.CancelsLazy == nil || c.PeakPending == nil {
			t.Fatalf("%s: event-engine counters missing from wire format: %+v", where, c)
		}
		if *c.EventsProcessed == 0 {
			t.Fatalf("%s: events_processed = 0 after a served job", where)
		}
		if *c.WheelEvents == 0 {
			t.Fatalf("%s: wheel_events = 0 — schedules never routed through the wheel", where)
		}
		if *c.PeakPending == 0 {
			t.Fatalf("%s: peak_pending = 0 after a served job", where)
		}
	}
	if len(raw.Shards) != 1 {
		t.Fatalf("expected 1 shard row, got %d", len(raw.Shards))
	}
	check("shard", raw.Shards[0])
	check("pool", raw.engineCounters)
}

// TestEventCountersMonotonicAcrossRecycles: the event-engine totals are
// folded into the pool when a shard is recycled (and peak_pending is kept
// as a running max), so repeated samples while shards churn must never go
// backwards even though each replacement shard starts its engine at zero.
func TestEventCountersMonotonicAcrossRecycles(t *testing.T) {
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
	if st.EventsProcessed == 0 || st.WheelEvents == 0 {
		t.Fatalf("no event-engine activity recorded: %+v", st)
	}
}
