package api

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/envelopes.golden from this build's answers")

// TestEnvelopesGolden replays a fixed script through a bare Server and compares
// every status code and body with testdata/envelopes.golden, which was rendered
// by the commit before the hand-written wire codec (encoding/json on both
// sides): 30 sequential wait:true ServiceMix jobs — sequential waited
// submissions make the sim schedule, and so every number in the envelope, a
// pure function of the trace — then a 422, a 404, a 409 and a 202 caught while
// its shard loop is held, so it is still queued.
func TestEnvelopesGolden(t *testing.T) {
	s, err := NewServer(PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var got bytes.Buffer
	play := func(method, target, body string) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		fmt.Fprintf(&got, "%s %s -> %d %s\n%s", method, target, rec.Code, rec.Header().Get("Content-Type"), rec.Body.String())
	}

	arrivals, err := workload.PoissonTrace(workload.ServiceMix(), 1, 60, 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivals) < 30 {
		t.Fatalf("trace has %d arrivals, want at least 30", len(arrivals))
	}
	for _, a := range arrivals[:30] {
		body, err := json.Marshal(requestFor(a))
		if err != nil {
			t.Fatal(err)
		}
		play(http.MethodPost, "/v1/jobs", string(body))
	}
	play(http.MethodPost, "/v1/jobs", `{"tenant":"x","description":"do <wonderful> things & \"more\"","constraint":"MIN_COST","wait":true,"inputs":[{"name":"x","kind":"text"}]}`)
	play(http.MethodGet, "/v1/jobs/job-99999999", "")
	play(http.MethodDelete, "/v1/jobs/job-00000001", "")

	// Hold every shard loop, so the next submission is answered while queued.
	gate := make(chan struct{})
	for _, sh := range s.pool.shards {
		sh.loop.Post(func() { <-gate })
	}
	play(http.MethodPost, "/v1/jobs", `{"tenant":"alice","description":"Answer questions about the documents","inputs":[{"name":"d.pdf","kind":"document","attrs":{"tokens":1500}}]}`)
	close(gate)

	const path = "testdata/envelopes.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.SplitAfter(got.String(), "\n"), strings.SplitAfter(string(want), "\n")
	for i := range max(len(gl), len(wl)) {
		if i >= len(gl) || i >= len(wl) || gl[i] != wl[i] {
			t.Fatalf("line %d differs from %s\n got: %s\nwant: %s", i+1, path, firstLine(gl, i), firstLine(wl, i))
		}
	}
}

// requestFor maps a generated arrival onto the POST /v1/jobs schema, waiting
// for the result.
func requestFor(a workload.Arrival) JobRequest {
	req := JobRequest{
		Tenant: a.Tenant, Description: a.Job.Description, Constraint: a.Job.Constraint.String(),
		MinQuality: a.Job.MinQuality, Tasks: a.Job.Tasks, Wait: true,
	}
	for _, in := range a.Job.Inputs {
		req.Inputs = append(req.Inputs, InputRequest{Name: in.Name, Kind: string(in.Kind), Attrs: in.Attrs})
	}
	return req
}

func firstLine(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<missing>"
}
