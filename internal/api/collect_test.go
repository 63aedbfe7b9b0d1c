package api

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"repro/internal/core"
	"repro/internal/workflow"
	"repro/internal/workload"
)

// tracked watches the collector reclaim settled jobs: a weak pointer per
// job's core.Handle — a weak pointer, unlike a finalizer, sees an object in a
// cycle go — and one to the first of the inputs the request arrived with. The
// record releases the handle at settle and the execution's block is parked on
// the shard's runtime, so neither may be reachable from there: the handle
// through the block's owner field, the inputs through its job.
type tracked struct {
	mu      sync.Mutex
	handles []weak.Pointer[core.Handle]
	inputs  []weak.Pointer[workflow.Input]
}

// collected counts the tracked jobs of which the collector has reclaimed both
// the handle and the inputs.
func (tr *tracked) collected() int64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var n int64
	for i, wp := range tr.handles {
		if wp.Value() == nil && tr.inputs[i].Value() == nil {
			n++
		}
	}
	return n
}

// parkedBlocks reads, on each shard's loop, how many execution blocks its
// runtime has parked.
func parkedBlocks(t *testing.T, s *Server) int {
	t.Helper()
	s.pool.mu.Lock()
	shards := append([]*shard(nil), s.pool.shards...)
	s.pool.mu.Unlock()
	total := 0
	for _, sh := range shards {
		n := make(chan int, 1)
		if !sh.loop.Post(func() { n <- sh.rt.ParkedBlocks() }) {
			t.Fatal("shard loop refused the read")
		}
		total += <-n
	}
	return total
}

// submitTracked submits req without waiting and has tr track the job's
// handle. The shard loops are held inside a gate while the record and, right
// behind it, the hook are posted, so the hook finds the handle before the
// simulation has taken a step.
func submitTracked(t *testing.T, s *Server, req JobRequest, tr *tracked) string {
	t.Helper()
	s.pool.mu.Lock()
	shards := append([]*shard(nil), s.pool.shards...)
	s.pool.mu.Unlock()
	gate, entered := make(chan struct{}), make(chan struct{}, len(shards))
	for _, sh := range shards {
		if !sh.loop.Post(func() { entered <- struct{}{}; <-gate }) {
			t.Fatal("shard loop refused the gate")
		}
	}
	for range shards {
		<-entered
	}
	req.Wait = false
	rp := s.Submit(context.Background(), req)
	if rp.Code != http.StatusAccepted {
		close(gate)
		t.Fatalf("submit answered %d: %v", rp.Code, rp.Err)
	}
	id := rp.Job.ID
	s.pool.mu.Lock()
	rec := s.pool.jobs[id]
	s.pool.mu.Unlock()
	hooked := rec.sh.loop.Post(func() {
		rec.mu.Lock()
		h := rec.handle
		rec.mu.Unlock()
		if h == nil {
			t.Errorf("%s: no handle behind the record's own turn on the loop", id)
			return
		}
		tr.mu.Lock()
		tr.handles = append(tr.handles, weak.Make(h))
		tr.inputs = append(tr.inputs, weak.Make(&rec.job.Inputs[0]))
		tr.mu.Unlock()
	})
	close(gate)
	if !hooked {
		t.Fatal("shard loop refused the hook")
	}
	return id
}

// awaitDone polls a job until it is done.
func awaitDone(t *testing.T, s *Server, id string) {
	t.Helper()
	for rp := s.Status(id); rp.Job.Status != core.JobDone.String(); rp = s.Status(id) {
		if rp.Err != nil || rp.Job.Error != "" {
			t.Fatalf("%s: %v %s", id, rp.Err, rp.Job.Error)
		}
		runtime.Gosched()
	}
}

// awaitCollected runs the collector until at least want tracked jobs were
// reclaimed, or gives up after a few seconds and reports how many were.
func awaitCollected(tr *tracked, want int64) int64 {
	for deadline := time.Now().Add(5 * time.Second); tr.collected() < want && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	return tr.collected()
}

func getEnvelope(t *testing.T, s *Server, id string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s answered %d: %s", id, rec.Code, rec.Body.String())
	}
	return rec.Body.String()
}

// serviceMixRequests returns n requests of the ServiceMix trace.
func serviceMixRequests(t *testing.T, n int) []JobRequest {
	t.Helper()
	arrivals, err := workload.PoissonTrace(workload.ServiceMix(), 100, 80, 29)
	if err != nil || len(arrivals) < n {
		t.Fatalf("trace: %d arrivals, %v", len(arrivals), err)
	}
	reqs := make([]JobRequest, n)
	for i := range reqs {
		reqs[i] = requestFor(arrivals[i])
	}
	return reqs
}

// TestSettledRecordReleasesItsExecution: a settled record stays in the job
// history (4096 of them by default) to answer polls, and it used to keep its
// core.Handle — and through it the execution, its tracker, spans, stages,
// plan and decomposition, and the request's job — for as long. The result was
// copied out by value at settle, so nothing of that is needed again: the
// handle and the request's inputs must be collectable while the envelope is
// still served, byte for byte, and while the block the job ran in sits on the
// runtime's free list, released by the record at settle. (A few dozen later
// jobs first: the runtime's request and event slabs hold a job's callbacks
// until their block is used up.)
func TestSettledRecordReleasesItsExecution(t *testing.T) {
	s, err := NewServer(PoolConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reqs := serviceMixRequests(t, 301)
	reqs[0].Timeline = true
	var tr tracked
	id := submitTracked(t, s, reqs[0], &tr)
	awaitDone(t, s, id)
	before := getEnvelope(t, s, id)
	var asPolled JobStatusResponse
	if err := json.Unmarshal([]byte(before), &asPolled); err != nil || asPolled.Result == nil || asPolled.Result.Timeline == "" {
		t.Fatalf("settled envelope carries no result timeline (%v): %s", err, before)
	}
	for _, req := range reqs[1:] {
		if rp := s.Submit(context.Background(), req); rp.Code != http.StatusOK {
			t.Fatalf("submit answered %d: %v %s", rp.Code, rp.Err, rp.Job.Error)
		}
	}
	if got := awaitCollected(&tr, 1); got != 1 {
		t.Fatalf("the settled job's handle and inputs were not collected (%d finalized)", got)
	}
	// One job at a time: every job ran in the one block, parked again now.
	if got := parkedBlocks(t, s); got != 1 {
		t.Fatalf("%d execution blocks parked after 301 jobs one at a time, want 1", got)
	}
	if after := getEnvelope(t, s, id); after != before {
		t.Fatalf("the envelope changed once the execution was gone:\n%s\n%s", before, after)
	}
	if _, canceled, found := s.pool.Cancel(id); canceled || !found {
		t.Fatalf("cancel of a settled job: canceled=%v found=%v", canceled, found)
	}
}

// TestShardKeepsNothingOfSettledJobs runs 500 ServiceMix jobs through one
// default server and counts the executions the collector reclaims. Embedding
// tasks used to insert a document each into a vector store the runtime owned
// and never dropped a namespace from, so a shard's heap grew with every job it
// had ever served; the documents now hang off the execution, there is no
// runtime-wide store, and what a shard keeps of a settled job is its record.
// Only the latest jobs may still be reachable, from the slabs their callbacks
// were cut from — and not from the execution blocks, which the records release
// at settle and the shards' runtimes park: one per shard here, whoever ran last.
func TestShardKeepsNothingOfSettledJobs(t *testing.T) {
	const jobs, recent = 500, 100
	s, err := NewServer(PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var tr tracked
	for _, req := range serviceMixRequests(t, jobs) {
		awaitDone(t, s, submitTracked(t, s, req, &tr))
	}
	if st := s.Pool().Stats(); st.Completed != jobs || st.Failed != 0 {
		t.Fatalf("completed %d failed %d, want %d and 0", st.Completed, st.Failed, jobs)
	}
	got := awaitCollected(&tr, jobs-recent)
	if got < jobs-recent {
		t.Fatalf("%d of %d settled executions were collected, want at least %d", got, jobs, jobs-recent)
	}
	t.Logf("%d of %d settled executions collected", got, jobs)
	if got := parkedBlocks(t, s); got < 1 || got > len(s.pool.shards) {
		t.Fatalf("%d execution blocks parked after %d jobs one at a time on %d shards", got, jobs, len(s.pool.shards))
	}
}
