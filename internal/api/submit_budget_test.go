package api

import (
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"sort"
	"testing"

	"repro/internal/core"
)

// TestSubmitAllocBudget holds a warm job — from the decoded request to the
// settled envelope, everything Server.Submit and the shard loop allocate for
// it — to a host-independent allocation budget, so a regression in the
// hand-off fails `go test ./...` without the ledger. It sits beside
// TestWireAllocBudget (the bytes on either side of this) and
// core.TestExecAllocBudget (the execution alone). The budgets are the measured
// 4 / 4 / 5 (video / user-profile / document, the same waiting and polled)
// + 2. They were 10 / 12 / 11 while every job made its execution block and
// ToJob grew the inputs by doubling, 49 / 37 / 34 while an execution was some
// thirty objects and embedded a document per embedding task, and 73 / 58 / 55
// before the record became the posted task and its handle's observer and the
// admission probe stopped building a snapshot.
func TestSubmitAllocBudget(t *testing.T) {
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("sync.Pool drops items under the race detector; coverage counters allocate")
	}
	s, err := NewServer(PoolConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	budget := map[string][2]float64{"video": {6, 6}, "user-profile": {6, 6}, "document": {7, 7}}

	bodies := serviceMixBodies(t)
	shapes := make([]string, 0, len(bodies))
	for shape := range bodies {
		shapes = append(shapes, shape)
	}
	sort.Strings(shapes)
	for _, shape := range shapes {
		var req JobRequest
		if err := json.Unmarshal(bodies[shape], &req); err != nil {
			t.Fatal(err)
		}
		wait := func() {
			if rp := s.Submit(ctx, req); rp.Code != http.StatusOK {
				t.Fatalf("%s: wait:true submit answered %d: %v %s", shape, rp.Code, rp.Err, rp.Job.Error)
			}
		}
		polled := req
		polled.Wait = false
		poll := func() {
			rp := s.Submit(ctx, polled)
			if rp.Code != http.StatusAccepted {
				t.Fatalf("%s: wait:false submit answered %d: %v", shape, rp.Code, rp.Err)
			}
			for id := rp.Job.ID; rp.Job.Status != core.JobDone.String(); rp = s.Status(id) {
				if rp.Err != nil || rp.Job.Error != "" {
					t.Fatalf("%s: poll: %v %s", shape, rp.Err, rp.Job.Error)
				}
				runtime.Gosched()
			}
		}
		// Warm the shard for the shape: caches, engines, slabs, telemetry.
		for i := 0; i < 64; i++ {
			wait()
		}
		for i, run := range []func(){wait, poll} {
			got := testing.AllocsPerRun(200, run)
			mode := [2]string{"wait:true", "wait:false + poll"}[i]
			if got > budget[shape][i] {
				t.Errorf("%s, %s: %.0f allocations per job, budget %.0f", shape, mode, got, budget[shape][i])
			}
			t.Logf("%s, %s: %.0f allocations per job (budget %.0f)", shape, mode, got, budget[shape][i])
		}
	}
}
