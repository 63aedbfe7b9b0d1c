package router

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
)

// TestRouterSingleNodeDifferential drives a bare api.Server (the -router
// off path) and a one-node router through the same request script and
// requires byte-identical responses — status code, Content-Type and body —
// modulo the documented job-ID namespace ("job-n0-…" vs "job-…"), which the
// comparison strips. This pins the router as a zero-drift pass-through: a
// cluster of one answers exactly like a single daemon.
func TestRouterSingleNodeDifferential(t *testing.T) {
	plain, err := api.NewServer(testNodeConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(plain.Close)
	rt := newTestRouter(t, Config{Nodes: 1, Seed: 42})

	run := func(h http.Handler, method, target, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, target, strings.NewReader(body))
		if body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	// normalize strips the single node's ID namespace from router output.
	normalize := func(s string) string { return strings.ReplaceAll(s, "job-n0-", "job-") }

	type step struct {
		name, method, target, body string
	}
	script := []step{
		{"healthz", http.MethodGet, "/healthz", ""},
		{"library", http.MethodGet, "/v1/library", ""},
		{"submit-wait", http.MethodPost, "/v1/jobs", jobBody("alice", true)},
		{"submit-async", http.MethodPost, "/v1/jobs", jobBody("bob", false)},
		{"get-first", http.MethodGet, "/v1/jobs/job-00000001", ""},
		{"get-unknown", http.MethodGet, "/v1/jobs/job-99999999", ""},
		{"cancel-done", http.MethodDelete, "/v1/jobs/job-00000001", ""},
		{"cancel-unknown", http.MethodDelete, "/v1/jobs/job-99999999", ""},
		{"submit-bad-json", http.MethodPost, "/v1/jobs", `{"tenant": `},
		{"submit-unknown-field", http.MethodPost, "/v1/jobs", `{"tenant": "x", "bogus": 1}`},
		{"submit-no-inputs", http.MethodPost, "/v1/jobs", `{"tenant": "x", "description": "d", "constraint": "MIN_COST"}`},
		// Past the 1 MiB submit bound: both front-ends answer the same 413.
		{"submit-oversize", http.MethodPost, "/v1/jobs", `{"tenant": "x",` + strings.Repeat(" ", 2<<20) + `"description": "d"}`},
	}
	for _, s := range script {
		want := run(plain, s.method, s.target, s.body)
		// The router sees the ID under its node's namespace.
		target := strings.ReplaceAll(s.target, "job-", "job-n0-")
		got := run(rt, s.method, target, s.body)
		if s.name == "submit-oversize" && want.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: single node answered %d, want 413: %s", s.name, want.Code, want.Body.String())
		}
		if got.Code != want.Code {
			t.Fatalf("%s: status %d (router) != %d (single node)\nrouter: %s\nsingle: %s",
				s.name, got.Code, want.Code, got.Body.String(), want.Body.String())
		}
		if gct, wct := got.Header().Get("Content-Type"), want.Header().Get("Content-Type"); gct != wct {
			t.Fatalf("%s: Content-Type %q != %q", s.name, gct, wct)
		}
		gotBody, wantBody := normalize(got.Body.String()), want.Body.String()
		// Async submissions race the shard loop: by the time either server
		// renders the response the job may be queued or already past it, so
		// only the deterministic fields are compared for that step.
		if s.name == "submit-async" || s.name == "get-first" || s.name == "cancel-done" {
			for _, frag := range []string{`"id":"job-`, `"tenant":"`} {
				if strings.Contains(wantBody, frag) != strings.Contains(gotBody, frag) {
					t.Fatalf("%s: structural mismatch\nrouter: %s\nsingle: %s", s.name, gotBody, wantBody)
				}
			}
			continue
		}
		if gotBody != wantBody {
			t.Fatalf("%s: body mismatch\nrouter: %s\nsingle: %s", s.name, gotBody, wantBody)
		}
	}
}

// TestRouterSingleNodeDifferentialWaitJobs replays a deterministic
// sequential wait:true trace through both servers and requires the full
// responses to match byte-for-byte after namespace stripping — including
// result payloads, sim timestamps and queue delays, since sequential
// waited submissions make the sim schedule a pure function of the trace.
func TestRouterSingleNodeDifferentialWaitJobs(t *testing.T) {
	plain, err := api.NewServer(testNodeConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(plain.Close)
	rt := newTestRouter(t, Config{Nodes: 1, Seed: 42})
	normalize := func(s string) string { return strings.ReplaceAll(s, "job-n0-", "job-") }

	for i := 0; i < 5; i++ {
		body := jobBody(fmt.Sprintf("tenant-%d", i%2), true)
		reqP := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body))
		recP := httptest.NewRecorder()
		plain.ServeHTTP(recP, reqP)
		reqR := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body))
		recR := httptest.NewRecorder()
		rt.ServeHTTP(recR, reqR)
		if recP.Code != recR.Code {
			t.Fatalf("job %d: status %d != %d", i, recR.Code, recP.Code)
		}
		if got, want := normalize(recR.Body.String()), recP.Body.String(); got != want {
			t.Fatalf("job %d: wait response diverged\nrouter: %s\nsingle: %s", i, got, want)
		}
	}
}
