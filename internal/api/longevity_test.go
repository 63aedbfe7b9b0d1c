package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestShardOutlivesItsClock drives one default-pool server through 6,000
// ServiceMix jobs, one at a time. Before llmsim's completion test became
// relative to what the clock can resolve, a default daemon wedged near job
// 4,000: once a shard's sim clock passed ~65,000 s a request's residual work
// (2e-9 units) asked for an event 5e-12 s ahead, which rounds to now, and the
// engine re-fired that event forever — the shard loop spun and every later
// job on the shard hung. The watchdog is wall-clock because a wedged shard
// never returns.
func TestShardOutlivesItsClock(t *testing.T) {
	const jobs = 6000
	arrivals, err := workload.PoissonTrace(workload.ServiceMix(), 100, 80, 23)
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivals) < jobs {
		t.Fatalf("trace has %d arrivals, want at least %d", len(arrivals), jobs)
	}
	s, err := NewServer(PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var served atomic.Int64
	finished := make(chan error, 1)
	go func() {
		last := s.Pool().Stats()
		for i, a := range arrivals[:jobs] {
			body, err := json.Marshal(requestFor(a))
			if err != nil {
				finished <- err
				return
			}
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(string(body))))
			if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"status":"done"`) {
				finished <- fmt.Errorf("job %d: %d %s", i, rec.Code, rec.Body.String())
				return
			}
			served.Add(1)
			if (i+1)%1000 == 0 {
				st := s.Pool().Stats()
				assertTotalsMonotonic(t, fmt.Sprintf("after %d jobs", i+1), last, st)
				last = st
			}
		}
		finished <- nil
	}()
	select {
	case err := <-finished:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Minute):
		// A wedged shard loop never exits, so Close would hang too: leave it.
		t.Fatalf("server wedged: %d of %d jobs served", served.Load(), jobs)
	}
	st := s.Pool().Stats()
	if st.Completed != jobs || st.Failed != 0 {
		t.Fatalf("completed %d failed %d, want %d and 0", st.Completed, st.Failed, jobs)
	}
	s.Close()
}
