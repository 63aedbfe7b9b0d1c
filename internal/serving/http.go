package serving

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"
)

// httpReplay is what one replay measured: jobs answered 200 and otherwise,
// the 200s' latencies sorted ascending, and the wall clock of the whole trace.
type httpReplay struct {
	completed, failed int
	latenciesMs       []float64
	wallS             float64
}

// replayHTTP is one arm of a wall-clock scenario: it serves handler over an
// httptest server and POSTs every body of the trace to /v1/jobs from clients
// concurrent submitters, as fast as they are answered. The bodies say
// wait:true, so a 200 carries the finished result; like any load generator,
// the replay drains the body without decoding it.
func replayHTTP(handler http.Handler, trace [][]byte, clients int) httpReplay {
	srv := httptest.NewServer(handler)
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConns: clients, MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()

	work := make(chan []byte)
	rep := httpReplay{latenciesMs: make([]float64, 0, len(trace))}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for body := range work {
				t0 := time.Now()
				resp, err := client.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
				latMs := float64(time.Since(t0).Microseconds()) / 1000
				ok := false
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					ok = resp.StatusCode == http.StatusOK
				}
				mu.Lock()
				if ok {
					rep.completed++
					rep.latenciesMs = append(rep.latenciesMs, latMs)
				} else {
					rep.failed++
				}
				mu.Unlock()
			}
		}()
	}
	for _, body := range trace {
		work <- body
	}
	close(work)
	wg.Wait()
	rep.wallS = time.Since(start).Seconds()
	sort.Float64s(rep.latenciesMs)
	return rep
}

// throughput is completed jobs per wall-clock second.
func (r httpReplay) throughput() float64 {
	if r.wallS <= 0 {
		return 0
	}
	return float64(r.completed) / r.wallS
}
