package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
)

// TestRouterLeaveRaceUnderChurn hammers the departing node's worst case:
// submissions, cancels and stats reads in flight from several goroutines, a
// shard-recycle storm on every node (MaxSeriesPoints far below one job's
// telemetry footprint), and a Leave racing all of it with an
// immediately-expiring drain deadline. The invariants: no accepted job
// strands non-terminal, and cluster totals never regress. Run under
// -race -shuffle=on in CI.
func TestRouterLeaveRaceUnderChurn(t *testing.T) {
	rt := newTestRouter(t, Config{
		Nodes:         3,
		Seed:          42,
		DrainDeadline: -1,
		Node: api.PoolConfig{
			Shards:                1,
			VMsPerShard:           2,
			MaxConcurrentPerShard: 2,
			MaxSeriesPoints:       64, // below one busy job's footprint: recycles guaranteed
		},
	})

	var (
		mu  sync.Mutex
		ids []string
	)
	addID := func(id string) {
		mu.Lock()
		ids = append(ids, id)
		mu.Unlock()
	}

	var wg sync.WaitGroup
	// Submitters: async jobs across tenants that span every node.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				tenant := fmt.Sprintf("race-%d-%d", w, i%7)
				rec := do(rt, http.MethodPost, "/v1/jobs", jobBody(tenant, false))
				switch rec.Code {
				case http.StatusAccepted, http.StatusOK:
					if id := decodeStatus(t, rec).ID; id != "" {
						addID(id)
					}
				default:
					t.Errorf("submit = %d: %s", rec.Code, rec.Body.String())
				}
			}
		}(w)
	}
	// Canceler: deletes whatever has been accepted so far; 200 (canceled),
	// 409 (already terminal) and 404 (id raced the registry) are all legal.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			mu.Lock()
			var id string
			if len(ids) > 0 {
				id = ids[i%len(ids)]
			}
			mu.Unlock()
			if id == "" {
				time.Sleep(time.Millisecond)
				continue
			}
			rec := do(rt, http.MethodDelete, "/v1/jobs/"+id, "")
			switch rec.Code {
			case http.StatusOK, http.StatusConflict, http.StatusNotFound:
			default:
				t.Errorf("cancel %s = %d: %s", id, rec.Code, rec.Body.String())
			}
		}
	}()
	// Stats poller: totals must be monotonic while nodes churn underneath.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var prev ClusterTotals
		for i := 0; i < 15; i++ {
			tot := rt.Stats().Totals
			if r := regressed(prev, tot); len(r) > 0 {
				t.Errorf("totals regressed mid-churn: %v", r)
			}
			prev = tot
			time.Sleep(time.Millisecond)
		}
	}()
	// The leave, racing everything above.
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond)
		if err := rt.Leave("n0"); err != nil {
			t.Errorf("leave: %v", err)
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	// Zero stranded: every accepted job reaches a terminal state through
	// the router (drained, rerouted or node_down).
	mu.Lock()
	all := append([]string(nil), ids...)
	mu.Unlock()
	for _, id := range all {
		waitTerminal(t, rt, id)
	}

	// The recycle storm must actually have fired, or the test lost its bite.
	s := rt.Stats()
	if s.Totals.Recycles == 0 {
		t.Fatalf("no shard recycles under MaxSeriesPoints=64: %+v", s.Totals)
	}
	if s.Leaves != 1 || len(s.Nodes) != 2 {
		t.Fatalf("post-race shape: leaves=%d nodes=%d", s.Leaves, len(s.Nodes))
	}
}

// TestRouterPollAndCancelWhileLeaveDrains reads and cancels a departing
// node's jobs through the router for as long as Leave is draining it: the
// typed Status and Cancel calls run beside Leave's own Get / Cancel / Close
// and its final-reply snapshot with nothing but the pool's and the router's
// locks between them. Every answer must be one a single node could give, and
// every job must end terminal.
func TestRouterPollAndCancelWhileLeaveDrains(t *testing.T) {
	rt := newTestRouter(t, Config{Nodes: 2, Seed: 42, DrainDeadline: 50 * time.Millisecond})
	var tenants []string
	for i := 0; len(tenants) < 4; i++ {
		tenant := fmt.Sprintf("drain-%d", i)
		if owner, _ := rt.ring.NodeFor(tenant); owner == "n0" {
			tenants = append(tenants, tenant)
		}
	}
	var ids []string
	for i := 0; i < 24; i++ {
		rec := do(rt, http.MethodPost, "/v1/jobs", videoJobBody(tenants[i%len(tenants)], false, 3600))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("async submit = %d: %s", rec.Code, rec.Body.String())
		}
		ids = append(ids, decodeStatus(t, rec).ID)
	}

	left := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-left:
					return
				default:
				}
				id := ids[i%len(ids)]
				if w == 0 && i%5 == 0 {
					if rec := do(rt, http.MethodDelete, "/v1/jobs/"+id, ""); rec.Code != http.StatusOK && rec.Code != http.StatusConflict {
						t.Errorf("cancel %s = %d: %s", id, rec.Code, rec.Body.String())
					}
					continue
				}
				rec := do(rt, http.MethodGet, "/v1/jobs/"+id, "")
				if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"tenant":"drain-`) {
					t.Errorf("GET %s = %d: %s", id, rec.Code, rec.Body.String())
				}
			}
		}(w)
	}
	if err := rt.Leave("n0"); err != nil {
		t.Errorf("leave: %v", err)
	}
	close(left)
	wg.Wait()
	if t.Failed() {
		return
	}

	for _, id := range ids {
		waitTerminal(t, rt, id)
	}
}

// TestRouterRegisterAfterLeaveKeepsTheJob replays, in order, the interleaving
// in which a submit routed to a node is registered only after that node's
// Leave finished: the job was accepted, so GET must answer its terminal
// envelope from the departed node, not 404.
func TestRouterRegisterAfterLeaveKeepsTheJob(t *testing.T) {
	rt := newTestRouter(t, Config{Nodes: 2, Seed: 42})
	tenant := ""
	for i := 0; tenant == ""; i++ {
		name := fmt.Sprintf("late-%d", i)
		if owner, _ := rt.ring.NodeFor(name); owner == "n0" {
			tenant = name
		}
	}
	req := new(api.JobRequest)
	if err := json.Unmarshal([]byte(jobBody(tenant, false)), req); err != nil {
		t.Fatal(err)
	}
	rp, n := rt.routeSubmit(context.Background(), req)
	if n == nil || n.name != "n0" || rp.Code != http.StatusAccepted {
		t.Fatalf("routeSubmit = %d on %v, want 202 on n0", rp.Code, n)
	}
	if err := rt.Leave("n0"); err != nil {
		t.Fatal(err)
	}
	rt.register(n, req, rp)

	rec := do(rt, http.MethodGet, "/v1/jobs/"+rp.Job.ID, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s after its node left = %d: %s", rp.Job.ID, rec.Code, rec.Body.String())
	}
	if st := decodeStatus(t, rec); st.ID != rp.Job.ID || st.Status != "done" {
		t.Fatalf("GET %s = %+v, want the drained job done", rp.Job.ID, st)
	}
}
