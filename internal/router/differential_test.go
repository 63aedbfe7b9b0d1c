package router

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/api"
)

// frontEnds is a bare api.Server (the -router off path) and a one-node
// router built from the same pool configuration: the two front-ends every
// differential step is played through.
type frontEnds struct {
	t     *testing.T
	plain *api.Server
	rt    *Router
}

func newFrontEnds(t *testing.T, node api.PoolConfig, rcfg Config) frontEnds {
	t.Helper()
	plain, err := api.NewServer(node)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(plain.Close)
	rcfg.Nodes, rcfg.Seed, rcfg.Node = 1, 42, node
	return frontEnds{t: t, plain: plain, rt: newTestRouter(t, rcfg)}
}

// step is one scripted request. The target names job IDs as a single node
// mints them ("job-00000001"); the router sees them under its node's
// namespace. exact compares bodies byte for byte; otherwise the response
// raced the shard loop (the job may be queued, running or already past it
// when either server renders it) and only the listed fragments must agree.
type step struct {
	name, method, target, body string
	ctx                        context.Context
	code                       int
	fragments                  []string
}

func exact(name, method, target, body string, code int) step {
	return step{name: name, method: method, target: target, body: body, code: code}
}

// play sends one step to both front-ends and compares the answers. It
// returns the single node's response.
func (f frontEnds) play(s step) *httptest.ResponseRecorder {
	f.t.Helper()
	run := func(h http.Handler, target string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(s.method, target, strings.NewReader(s.body))
		if s.ctx != nil {
			req = req.WithContext(s.ctx)
		}
		if s.body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	want := run(f.plain, s.target)
	f.compare(s, want, run(f.rt, strings.ReplaceAll(s.target, "job-", "job-n0-")))
	return want
}

// compare requires the same status code, the same full header set and the
// same body (modulo the documented job-ID namespace, "job-n0-…" vs "job-…")
// from the single node (want) and the router (got).
func (f frontEnds) compare(s step, want, got *httptest.ResponseRecorder) {
	f.t.Helper()
	gotBody, wantBody := strings.ReplaceAll(got.Body.String(), "job-n0-", "job-"), want.Body.String()
	if want.Code != s.code {
		f.t.Fatalf("%s: single node answered %d, want %d: %.300s", s.name, want.Code, s.code, wantBody)
	}
	if got.Code != want.Code {
		f.t.Fatalf("%s: status %d (router) != %d (single node)\nrouter: %.300s\nsingle: %.300s",
			s.name, got.Code, want.Code, gotBody, wantBody)
	}
	if !reflect.DeepEqual(got.Header(), want.Header()) {
		f.t.Fatalf("%s: headers %v (router) != %v (single node)", s.name, got.Header(), want.Header())
	}
	if s.fragments == nil {
		if gotBody != wantBody {
			f.t.Fatalf("%s: body mismatch\nrouter: %.600s\nsingle: %.600s", s.name, gotBody, wantBody)
		}
		return
	}
	for _, frag := range s.fragments {
		if !strings.Contains(wantBody, frag) || !strings.Contains(gotBody, frag) {
			f.t.Fatalf("%s: both bodies must contain %q\nrouter: %.600s\nsingle: %.600s", s.name, frag, gotBody, wantBody)
		}
	}
}

// settle waits for an async job to finish on both front-ends, so the sim
// clocks agree again before the next exact step.
func (f frontEnds) settle(id string) {
	f.t.Helper()
	waitTerminal(f.t, f.plain, id)
	waitTerminal(f.t, f.rt, strings.ReplaceAll(id, "job-", "job-n0-"))
}

// TestRouterSingleNodeDifferential drives a bare api.Server and a one-node
// router through the same request script and requires identical answers —
// status code, every header and the body. This pins the typed hop as a
// zero-drift pass-through: a cluster of one answers exactly like a single
// daemon, whichever of the two front-ends decoded the request and wrote the
// reply.
func TestRouterSingleNodeDifferential(t *testing.T) {
	f := newFrontEnds(t, testNodeConfig(), Config{})
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	unplannable := func(description string) string {
		return fmt.Sprintf(`{"tenant": "x", "description": %q, "constraint": "MIN_COST", "wait": true,
			"inputs": [{"name": "x", "kind": "text"}]}`, description)
	}
	script := []step{
		exact("healthz", http.MethodGet, "/healthz", "", 200),
		exact("library", http.MethodGet, "/v1/library", "", 200),
		exact("submit-wait", http.MethodPost, "/v1/jobs", jobBody("alice", true), 200),
		{name: "submit-async", method: http.MethodPost, target: "/v1/jobs", body: jobBody("bob", false),
			code: 202, fragments: []string{`"id":"job-00000002"`, `"tenant":"bob"`}},
		exact("get-first", http.MethodGet, "/v1/jobs/job-00000001", "", 200),
		exact("get-async-settled", http.MethodGet, "/v1/jobs/job-00000002", "", 200),
		exact("get-unknown", http.MethodGet, "/v1/jobs/job-99999999", "", 404),
		exact("cancel-done", http.MethodDelete, "/v1/jobs/job-00000001", "", 409),
		exact("cancel-unknown", http.MethodDelete, "/v1/jobs/job-99999999", "", 404),
		exact("submit-bad-json", http.MethodPost, "/v1/jobs", `{"tenant": `, 400),
		exact("submit-unknown-field", http.MethodPost, "/v1/jobs", `{"tenant": "x", "bogus": 1}`, 400),
		exact("submit-no-inputs", http.MethodPost, "/v1/jobs", `{"tenant": "x", "description": "d", "constraint": "MIN_COST"}`, 400),
		// Past the 1 MiB submit bound: both front-ends answer the same 413.
		exact("submit-oversize", http.MethodPost, "/v1/jobs", `{"tenant": "x",`+strings.Repeat(" ", 2<<20)+`"description": "d"}`, 413),
		// A job the planner cannot decompose settles failed: 422.
		exact("submit-unplannable", http.MethodPost, "/v1/jobs", unplannable("do wonderful things"), 422),
		// The planner's error quotes a bounded prefix of the description, so
		// a long description cannot come back as a long 422 body (nor sit in
		// the job record for the history's lifetime).
		exact("submit-unplannable-long", http.MethodPost, "/v1/jobs",
			unplannable("do wonderful things "+strings.Repeat("again and ", 6_000)), 422),
		// Past the 64 KiB bound on what the planner prices its prompt by, a
		// description is refused at the wire: 400, no job minted. A megabyte
		// of it used to overflow an engine's KV capacity and panic the shard.
		exact("submit-description-800KB", http.MethodPost, "/v1/jobs",
			unplannable("do wonderful things "+strings.Repeat("again and ", 80_000)), 400),
		exact("submit-description-1MB-video", http.MethodPost, "/v1/jobs",
			strings.Replace(videoJobBody("mallory", true, 120), `"description": "`, `"description": "`+strings.Repeat("x", 1_040_000), 1), 400),
		// The caller of a wait:true submission gives up first: 202, and the
		// hour-long video keeps running and stays pollable.
		{name: "submit-wait-abandoned", method: http.MethodPost, target: "/v1/jobs", body: videoJobBody("carol", true, 3600),
			ctx: gone, code: 202, fragments: []string{`"id":"job-00000005"`, `"tenant":"carol"`}},
		{name: "get-abandoned", method: http.MethodGet, target: "/v1/jobs/job-00000005",
			code: 200, fragments: []string{`"id":"job-00000005"`, `"tenant":"carol"`}},
	}
	for _, s := range script {
		rec := f.play(s)
		switch s.name {
		case "submit-async":
			f.settle("job-00000002")
		case "submit-unplannable-long":
			if body := rec.Body.String(); len(body) > 1024 || !strings.Contains(body, `cannot decompose job \"do wonderful things again`) {
				t.Fatalf("422 for a 60 KB description is %d bytes: %.300s", len(body), body)
			}
		case "submit-description-800KB", "submit-description-1MB-video":
			if body := rec.Body.String(); len(body) > 1024 || !strings.Contains(body, "the limit is 65536 bytes") {
				t.Fatalf("400 for an oversize description is %d bytes: %.300s", len(body), body)
			}
		}
	}
}

// TestRouterSingleNodeDifferentialSLO covers the admission rejections only a
// daemon with SLO tiers produces: the budget 429 (terminal envelope, no
// Retry-After) and the shed 429 (Retry-After: 1).
func TestRouterSingleNodeDifferentialSLO(t *testing.T) {
	node := api.PoolConfig{Shards: 1, VMsPerShard: 2, MaxConcurrentPerShard: 1, SLO: true}

	// Every MAX_QUALITY two-minute video charges ~$0.18 of planned cost, so
	// with a $0.50 budget the fourth sequential submission is refused.
	node.SLOBudgetUSD = 0.5
	f := newFrontEnds(t, node, Config{})
	for i := 1; i <= 3; i++ {
		f.play(exact(fmt.Sprintf("budget-admit-%d", i), http.MethodPost, "/v1/jobs", jobBody("spender", true), 200))
	}
	spent := f.play(exact("budget-exhausted", http.MethodPost, "/v1/jobs", jobBody("spender", true), 429))
	if !strings.Contains(spent.Body.String(), `"error_code":"budget_exhausted"`) || spent.Header().Get("Retry-After") != "" {
		t.Fatalf("budget 429: headers %v body %s", spent.Header(), spent.Body.String())
	}
	f.play(exact("get-budget-exhausted", http.MethodGet, "/v1/jobs/job-00000004", "", 200))

	// One slot, one queue place: hour-long videos hold both far longer than a
	// submission takes, so a short sequential burst is shed. Which submission
	// is the first to be shed is a real-time race against the shard loop, so
	// each front-end is driven to its own first 429 and those are compared.
	node.SLOBudgetUSD, node.SLOQueueBound = 0, 1
	f = newFrontEnds(t, node, Config{})
	firstShed := func(h http.Handler) *httptest.ResponseRecorder {
		for i := 0; i < 16; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs",
				strings.NewReader(videoJobBody("burst", false, 3600))))
			if rec.Code != http.StatusAccepted {
				return rec
			}
		}
		t.Fatal("a burst of 16 hour-long videos into one slot and one queue place was never shed")
		return nil
	}
	shed := firstShed(f.plain)
	f.compare(step{name: "shed", code: 429,
		fragments: []string{`"tenant":"burst"`, `"status":"failed"`, `"error_code":"shed_overload"`}},
		shed, firstShed(f.rt))
	if shed.Header().Get("Retry-After") != "1" {
		t.Fatalf("shed 429 without Retry-After: %v", shed.Header())
	}
}

// TestRouterProbesEvictedIDs pins the fallback for an ID the router's bounded
// registry has evicted: the nodes are asked directly, and the answer is the
// one a single node gives.
func TestRouterProbesEvictedIDs(t *testing.T) {
	f := newFrontEnds(t, testNodeConfig(), Config{JobHistoryLimit: 1})
	f.play(exact("submit-1", http.MethodPost, "/v1/jobs", jobBody("alice", true), 200))
	f.play(exact("submit-2", http.MethodPost, "/v1/jobs", jobBody("alice", true), 200))
	if s := f.rt.Stats(); s.JobsTracked != 1 {
		t.Fatalf("registry holds %d entries under JobHistoryLimit 1", s.JobsTracked)
	}
	f.play(exact("get-evicted", http.MethodGet, "/v1/jobs/job-00000001", "", 200))
	f.play(exact("cancel-evicted", http.MethodDelete, "/v1/jobs/job-00000001", "", 409))
}

// TestRouterSingleNodeDifferentialWaitJobs replays a deterministic
// sequential wait:true trace through both servers and requires the full
// responses to match byte-for-byte after namespace stripping — including
// result payloads, sim timestamps and queue delays, since sequential waited
// submissions make the sim schedule a pure function of the trace.
func TestRouterSingleNodeDifferentialWaitJobs(t *testing.T) {
	f := newFrontEnds(t, testNodeConfig(), Config{})
	for i := 0; i < 5; i++ {
		f.play(exact(fmt.Sprintf("job-%d", i), http.MethodPost, "/v1/jobs", jobBody(fmt.Sprintf("tenant-%d", i%2), true), 200))
	}
}
