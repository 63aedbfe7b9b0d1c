package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// server starts a shared-mode daemon with the given pool config.
func server(t *testing.T, cfg PoolConfig) *httptest.Server {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return srv
}

func defaultServer(t *testing.T) *httptest.Server { return server(t, PoolConfig{}) }

func postJob(t *testing.T, srv *httptest.Server, body string) (*http.Response, JobStatusResponse) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out JobStatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response (status %d): %v", resp.StatusCode, err)
	}
	return resp, out
}

func getJob(t *testing.T, srv *httptest.Server, id string) (int, JobStatusResponse) {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out JobStatusResponse
	json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

func pollDone(t *testing.T, srv *httptest.Server, id string) JobStatusResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, st := getJob(t, srv, id)
		if code != http.StatusOK {
			t.Fatalf("GET %s = %d", id, code)
		}
		switch st.Status {
		case "done", "failed", "canceled":
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never settled", id)
	return JobStatusResponse{}
}

func videoJobJSON(extra string) string {
	return `{
		"description": "List objects shown/mentioned in the videos",
		"constraint": "MIN_COST",
		"min_quality": 0.95,` + extra + `
		"inputs": [
			{"name": "cats.mov", "kind": "video",
			 "attrs": {"duration_s": 240, "scene_len_s": 30, "frames_per_scene": 24}},
			{"name": "formula_1.mov", "kind": "video",
			 "attrs": {"duration_s": 240, "scene_len_s": 30, "frames_per_scene": 24}}
		]
	}`
}

func TestHealthz(t *testing.T) {
	srv := defaultServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestLibraryListing(t *testing.T) {
	srv := defaultServer(t)
	resp, err := http.Get(srv.URL + "/v1/library")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var entries []LibraryEntry
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) < 15 {
		t.Fatalf("library entries = %d, want >= 15", len(entries))
	}
	var whisper *LibraryEntry
	for i := range entries {
		if entries[i].Name == "whisper-large-v3" {
			whisper = &entries[i]
		}
	}
	if whisper == nil {
		t.Fatal("library missing whisper")
	}
	if whisper.Capability != "speech-to-text" || whisper.Quality != 0.95 {
		t.Fatalf("whisper entry = %+v", whisper)
	}
	found := false
	for _, a := range whisper.Args {
		if a == "file:path*" {
			found = true
		}
	}
	if !found {
		t.Fatalf("whisper schema args = %v, want required file:path", whisper.Args)
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	srv := defaultServer(t)
	resp, st := postJob(t, srv, videoJobJSON(`"tenant": "alice", "timeline": true,`))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
	if st.ID == "" || st.Tenant != "alice" {
		t.Fatalf("submit response = %+v", st)
	}
	if st.Result != nil {
		t.Fatal("async submit returned an inline result")
	}
	final := pollDone(t, srv, st.ID)
	if final.Status != "done" || final.Result == nil {
		t.Fatalf("final = %+v", final)
	}
	out := final.Result
	if out.TasksCompleted != 80 {
		t.Fatalf("tasks = %d, want 80", out.TasksCompleted)
	}
	if out.MakespanS <= 0 || out.GPUEnergyWh <= 0 || out.CostUSD <= 0 {
		t.Fatalf("incomplete result: %+v", out)
	}
	if out.Template != "video-understanding" {
		t.Fatalf("template = %q", out.Template)
	}
	if !strings.Contains(out.Timeline, "Speech-to-Text") {
		t.Fatal("timeline missing STT track")
	}
	if _, ok := out.Decisions["speech-to-text"]; !ok {
		t.Fatalf("decisions = %v", out.Decisions)
	}
	// The timeline is opt-in: a request without the flag omits it.
	resp2, st2 := postJob(t, srv, videoJobJSON(`"tenant": "alice", "wait": true,`))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second submit = %d", resp2.StatusCode)
	}
	if st2.Result == nil || st2.Result.Timeline != "" {
		t.Fatalf("timeline rendered without opt-in: %+v", st2.Result)
	}
}

func TestWaitModeReturnsResultInline(t *testing.T) {
	srv := defaultServer(t)
	body := `{
		"description": "Generate social media newsfeed for Alice",
		"constraint": "MIN_LATENCY",
		"wait": true,
		"inputs": [
			{"name": "alice", "kind": "user-profile"},
			{"name": "cats", "kind": "topic"}
		]
	}`
	resp, st := postJob(t, srv, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if st.Status != "done" || st.Result == nil {
		t.Fatalf("wait response = %+v", st)
	}
	if st.Result.Template != "newsfeed" || st.Result.TasksCompleted != 4 {
		t.Fatalf("result = %+v", st.Result)
	}
}

func TestSharedRuntimeMultiplexesAcrossRequests(t *testing.T) {
	srv := server(t, PoolConfig{Shards: 1})
	// Three identical jobs back to back on one shard: the decomposition and
	// plan must be computed once and reused, and the serving engines stay
	// warm, so later jobs see identical makespans.
	var runs []JobStatusResponse
	for i := 0; i < 3; i++ {
		resp, st := postJob(t, srv, videoJobJSON(`"tenant": "alice", "wait": true,`))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d status = %d", i, resp.StatusCode)
		}
		runs = append(runs, st)
	}
	// Warm runs agree to float accumulation noise (the absolute sim clock
	// differs per run, so the last ulp can wobble).
	m1, m2 := runs[1].Result.MakespanS, runs[2].Result.MakespanS
	if diff := m1 - m2; diff < -1e-6 || diff > 1e-6 {
		t.Fatalf("warm runs diverge: %v vs %v", m1, m2)
	}
	if runs[1].Result.TasksCompleted != runs[2].Result.TasksCompleted {
		t.Fatalf("warm runs completed different work: %+v vs %+v", runs[1].Result, runs[2].Result)
	}
	var stats PoolStats
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Mode != "shared" || stats.Submitted != 3 || stats.Completed != 3 {
		t.Fatalf("stats = %+v", stats)
	}
	sh := stats.Shards[0]
	if sh.DecompCacheHits < 2 || sh.PlanCacheHits < 2 {
		t.Fatalf("caches cold across requests: %+v", sh)
	}
	if len(sh.Engines) == 0 {
		t.Fatal("no warm engines after jobs (KeepEngines)")
	}
	if sh.SimTimeS <= 0 {
		t.Fatalf("shard sim clock did not advance: %+v", sh)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s, err := NewServer(PoolConfig{Shards: 1, MaxConcurrentPerShard: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	t.Cleanup(func() { srv.Close(); s.Close() })

	// The shard drains jobs in microseconds of wall time, so an HTTP DELETE
	// issued after an HTTP POST races job completion. Gate the shard loop:
	// everything posted while the gate is down executes back to back in one
	// inbox batch, before any simulation event (the scheduler's pump is a
	// deferred event), so the cancel deterministically observes a queued job.
	sh := s.pool.shards[0]
	gate := make(chan struct{})
	sh.loop.Post(func() { <-gate })

	_, first := postJob(t, srv, videoJobJSON(`"tenant": "alice",`))
	_, second := postJob(t, srv, videoJobJSON(`"tenant": "alice",`))

	// Issue the DELETE while the gate is still down, then lift the gate once
	// the cancel has certainly been posted behind the two submissions.
	type delResult struct {
		code int
		st   JobStatusResponse
	}
	delCh := make(chan delResult, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+second.ID, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			delCh <- delResult{}
			return
		}
		defer resp.Body.Close()
		var st JobStatusResponse
		json.NewDecoder(resp.Body).Decode(&st)
		delCh <- delResult{resp.StatusCode, st}
	}()
	// Lift the gate only once all four closures (gate, submit, submit,
	// cancel) have been accepted. However the loop batched them, the cancel
	// executes at most one step-batch after the second submission — the job
	// is still queued (or at worst just started), and both are cancelable.
	for sh.loop.Posted() < 4 {
		time.Sleep(time.Millisecond)
	}
	close(gate)

	del := <-delCh
	if del.code != http.StatusOK || del.st.Status != "canceled" {
		t.Fatalf("DELETE = %d %+v", del.code, del.st)
	}

	// Canceling a terminal job conflicts.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+second.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second DELETE = %d, want 409", resp.StatusCode)
	}

	if final := pollDone(t, srv, first.ID); final.Status != "done" {
		t.Fatalf("first job = %+v", final)
	}
	if code, st := getJob(t, srv, second.ID); code != http.StatusOK || st.Status != "canceled" {
		t.Fatalf("canceled job reads back as %d %+v", code, st)
	}
}

func TestJobNotFound(t *testing.T) {
	srv := defaultServer(t)
	code, _ := getJob(t, srv, "job-99999999")
	if code != http.StatusNotFound {
		t.Fatalf("GET unknown = %d, want 404", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/job-99999999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown = %d, want 404", resp.StatusCode)
	}
}

func TestJobValidationErrors(t *testing.T) {
	srv := defaultServer(t)
	cases := map[string]struct {
		body    string
		wantMsg string
	}{
		"bad json":           {`{`, "invalid JSON"},
		"unknown field":      {`{"nope": 1}`, "unknown field"},
		"unknown constraint": {`{"description":"x","constraint":"FASTEST","inputs":[{"name":"a","kind":"text"}]}`, "allowed: MIN_COST, MIN_LATENCY, MIN_POWER, MAX_QUALITY"},
		"unknown kind":       {`{"description":"x","inputs":[{"name":"a","kind":"audio"}]}`, "allowed: video, text, user-profile, topic, document"},
		"video no attrs":     {`{"description":"videos with objects","inputs":[{"name":"a.mov","kind":"video"}]}`, "needs duration_s"},
		"no inputs":          {`{"description":"x","constraint":"MIN_COST"}`, ""},
		"vms is gone":        {`{"description":"x","vms":4,"inputs":[{"name":"a","kind":"text"}]}`, "unknown field"},
	}
	for name, tc := range cases {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e errorBody
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
		if tc.wantMsg != "" && !strings.Contains(e.Error, tc.wantMsg) {
			t.Errorf("%s: error = %q, want it to mention %q", name, e.Error, tc.wantMsg)
		}
	}
}

func TestUnplannableJobIs422(t *testing.T) {
	srv := defaultServer(t)
	body := `{"description":"do wonderful things","constraint":"MIN_COST","wait":true,
	          "inputs":[{"name":"x","kind":"text"}]}`
	resp, st := postJob(t, srv, body)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", resp.StatusCode)
	}
	if st.Status != "failed" || !strings.Contains(st.Error, "cannot decompose") {
		t.Fatalf("response = %+v", st)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv := defaultServer(t)
	resp, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/jobs = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/v1/library", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/library = %d, want 405", resp.StatusCode)
	}
}

func TestJobHistoryEviction(t *testing.T) {
	s, err := NewServer(PoolConfig{Shards: 1, JobHistoryLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	t.Cleanup(func() { srv.Close(); s.Close() })

	var ids []string
	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{
			"description": "Generate social media newsfeed for user%d",
			"wait": true,
			"inputs": [{"name": "u%d", "kind": "user-profile"},
			           {"name": "cats", "kind": "topic"}]
		}`, i, i)
		resp, st := postJob(t, srv, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job %d status = %d", i, resp.StatusCode)
		}
		ids = append(ids, st.ID)
	}
	if code, _ := getJob(t, srv, ids[0]); code != http.StatusNotFound {
		t.Fatalf("oldest job not evicted: GET = %d", code)
	}
	if code, _ := getJob(t, srv, ids[2]); code != http.StatusOK {
		t.Fatalf("recent job evicted: GET = %d", code)
	}
}
