package router

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
)

func testNodeConfig() api.PoolConfig {
	return api.PoolConfig{Shards: 1, VMsPerShard: 2, MaxConcurrentPerShard: 4}
}

func newTestRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	if cfg.Node.Shards == 0 {
		cfg.Node = testNodeConfig()
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func jobBody(tenant string, wait bool) string { return videoJobBody(tenant, wait, 120) }

// videoJobBody is a MAX_QUALITY job over one video of the given length; its
// wall-clock cost on the shard loop grows with the scene count.
func videoJobBody(tenant string, wait bool, durationS int) string {
	return fmt.Sprintf(`{
		"tenant": %q, "wait": %v,
		"description": "List objects shown in the videos",
		"constraint": "MAX_QUALITY",
		"inputs": [{"name": "a.mov", "kind": "video",
		            "attrs": {"duration_s": %d, "scene_len_s": 30, "frames_per_scene": 24}}]
	}`, tenant, wait, durationS)
}

// do runs one request through the router handler.
func do(rt *Router, method, target, body string) *httptest.ResponseRecorder {
	var rd *strings.Reader
	if body != "" {
		rd = strings.NewReader(body)
	} else {
		rd = strings.NewReader("")
	}
	req := httptest.NewRequest(method, target, rd)
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	return rec
}

type wireStatus struct {
	ID        string `json:"id"`
	Tenant    string `json:"tenant"`
	Status    string `json:"status"`
	Error     string `json:"error"`
	ErrorCode string `json:"error_code"`
}

func decodeStatus(t *testing.T, rec *httptest.ResponseRecorder) wireStatus {
	t.Helper()
	var st wireStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("decoding %q: %v", rec.Body.String(), err)
	}
	return st
}

// waitTerminal polls GET /v1/jobs/{id} on a front-end until the job is
// terminal and returns that status: nothing an accepted job does — drain,
// reroute, node_down, cancel — may leave it stranded or unreadable.
func waitTerminal(t *testing.T, h http.Handler, id string) wireStatus {
	t.Helper()
	deadline := time.Now().Add(90 * time.Second)
	for {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", id, rec.Code, rec.Body.String())
		}
		if st := decodeStatus(t, rec); terminalStatus(st.Status) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stranded non-terminal: %s", id, rec.Body.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestRouterRoutesByTenantAndNamespacesIDs(t *testing.T) {
	rt := newTestRouter(t, Config{Nodes: 3, Seed: 42})
	owners := map[string]string{}
	for i := 0; i < 6; i++ {
		tenant := fmt.Sprintf("tenant-%d", i)
		rec := do(rt, http.MethodPost, "/v1/jobs", jobBody(tenant, true))
		if rec.Code != http.StatusOK {
			t.Fatalf("submit %s = %d: %s", tenant, rec.Code, rec.Body.String())
		}
		st := decodeStatus(t, rec)
		if st.Status != "done" {
			t.Fatalf("wait-submit status = %q", st.Status)
		}
		// The minted ID carries the owning node's namespace, and that node
		// must be the ring owner for the tenant.
		want, _ := rt.ring.NodeFor(tenant)
		if !strings.HasPrefix(st.ID, "job-"+want+"-") {
			t.Fatalf("tenant %s: job id %q not namespaced to ring owner %s", tenant, st.ID, want)
		}
		owners[tenant] = want

		// Reads route back through the registry to the same record.
		get := do(rt, http.MethodGet, "/v1/jobs/"+st.ID, "")
		if get.Code != http.StatusOK || decodeStatus(t, get).ID != st.ID {
			t.Fatalf("GET %s = %d: %s", st.ID, get.Code, get.Body.String())
		}
		// Canceling a finished job is the same 409 a single node reports.
		del := do(rt, http.MethodDelete, "/v1/jobs/"+st.ID, "")
		if del.Code != http.StatusConflict {
			t.Fatalf("DELETE done job = %d: %s", del.Code, del.Body.String())
		}
	}
	// With 6 tenants over 3 nodes and seed 42 at least two nodes should own
	// traffic; this guards against the ring degenerating to one node.
	distinct := map[string]bool{}
	for _, n := range owners {
		distinct[n] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("all tenants landed on one node: %v", owners)
	}

	if rec := do(rt, http.MethodGet, "/v1/jobs/job-nope", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown job GET = %d", rec.Code)
	}
	if rec := do(rt, http.MethodGet, "/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
	if rec := do(rt, http.MethodGet, "/v1/library", ""); rec.Code != http.StatusOK {
		t.Fatalf("library = %d", rec.Code)
	}
}

func TestRouterStatsFanInMonotonic(t *testing.T) {
	rt := newTestRouter(t, Config{Nodes: 2, Seed: 7})
	for i := 0; i < 4; i++ {
		rec := do(rt, http.MethodPost, "/v1/jobs", jobBody(fmt.Sprintf("tenant-%d", i), true))
		if rec.Code != http.StatusOK {
			t.Fatalf("submit = %d", rec.Code)
		}
	}
	s1 := rt.Stats()
	if s1.Mode != "cluster" || s1.NodesUp != 2 || len(s1.Nodes) != 2 {
		t.Fatalf("stats shape: %+v", s1)
	}
	if s1.Totals.Submitted != 4 || s1.Totals.Completed != 4 {
		t.Fatalf("totals = %+v, want 4 submitted/completed", s1.Totals)
	}
	if s1.RoutedSubmits != 4 || s1.TenantsObserved != 4 {
		t.Fatalf("router counters: %+v", s1)
	}
	// The HTTP endpoint serves the same document.
	rec := do(rt, http.MethodGet, "/v1/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/stats = %d", rec.Code)
	}
	var viaHTTP ClusterStats
	if err := json.Unmarshal(rec.Body.Bytes(), &viaHTTP); err != nil {
		t.Fatal(err)
	}
	if viaHTTP.Totals.Submitted != s1.Totals.Submitted {
		t.Fatalf("HTTP stats disagree: %+v vs %+v", viaHTTP.Totals, s1.Totals)
	}
	// More work strictly advances the fold.
	if rec := do(rt, http.MethodPost, "/v1/jobs", jobBody("tenant-9", true)); rec.Code != http.StatusOK {
		t.Fatalf("submit = %d", rec.Code)
	}
	s2 := rt.Stats()
	if r := regressed(s1.Totals, s2.Totals); len(r) > 0 {
		t.Fatalf("totals regressed: %v", r)
	}
}

func TestRouterJoinWarmsWithoutRecomputation(t *testing.T) {
	rt := newTestRouter(t, Config{Nodes: 1, Seed: 1})
	// The seed node had to profile (it built the canonical registry).
	if builds, ok := rt.NodeBuilds("n0"); !ok || builds == 0 {
		t.Fatalf("seed node builds = %d ok=%v, want > 0", builds, ok)
	}
	if err := rt.Join("warm"); err != nil {
		t.Fatal(err)
	}
	// The joining node replicated content-keyed deltas instead of
	// re-profiling: its build counter stays zero.
	if builds, ok := rt.NodeBuilds("warm"); !ok || builds != 0 {
		t.Fatalf("joined node builds = %d ok=%v, want 0 (warmed by replication)", builds, ok)
	}
	s := rt.Stats()
	if s.ProfileKeysReplicated == 0 || s.ProfileEntriesReplicated == 0 {
		t.Fatalf("replication counters empty: %+v", s)
	}
	if s.Joins != 2 {
		t.Fatalf("joins = %d, want 2 (seed + warm)", s.Joins)
	}
	// The new node serves traffic for tenants the ring hands it.
	found := false
	for i := 0; i < 64 && !found; i++ {
		tenant := fmt.Sprintf("probe-%d", i)
		if owner, _ := rt.ring.NodeFor(tenant); owner == "warm" {
			rec := do(rt, http.MethodPost, "/v1/jobs", jobBody(tenant, true))
			if rec.Code != http.StatusOK {
				t.Fatalf("submit to joined node = %d: %s", rec.Code, rec.Body.String())
			}
			if id := decodeStatus(t, rec).ID; !strings.HasPrefix(id, "job-warm-") {
				t.Fatalf("id %q not on joined node", id)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("ring handed the joined node no tenants out of 64 probes")
	}
}

// TestRouterLeaveDrainReroutesAndTypesNodeDown pins the leave contract with
// an immediately-expiring drain deadline: still-queued jobs re-enter
// surviving nodes, still-running jobs surface the typed node_down error,
// nothing strands, and cluster totals stay monotonic across the fold. The
// departing node holds both kinds at once — four long jobs running in its
// four slots, short ones queued behind — so the leave must take both paths;
// canceling a running job first would admit a queued one into its slot and
// type it node_down instead of rerouting it.
func TestRouterLeaveDrainReroutesAndTypesNodeDown(t *testing.T) {
	// Whether the leave finds the long jobs still running is a real-time
	// race against the shard loop (each runs for many times the cost of the
	// leave, but a starved test goroutine can lose). Retry the whole scenario
	// on a fresh cluster until a leave catches a running job — virtually
	// always the first attempt; bounded for slow or contended machines. The
	// queued jobs are never part of that race: they must reroute on every
	// attempt, and the assertion below is not retried.
	var rt *Router
	var ids []string
	var before ClusterStats
	for attempt := 0; ; attempt++ {
		rt = newTestRouter(t, Config{Nodes: 2, Seed: 42, DrainDeadline: -1})
		var victimTenants []string
		for i := 0; len(victimTenants) < 4 && i < 256; i++ {
			tenant := fmt.Sprintf("flood-%d", i)
			if owner, _ := rt.ring.NodeFor(tenant); owner == "n0" {
				victimTenants = append(victimTenants, tenant)
			}
		}
		if len(victimTenants) < 4 {
			t.Fatal("could not find tenants owned by n0")
		}
		ids = ids[:0]
		submit := func(tenant string, durationS int) string {
			rec := do(rt, http.MethodPost, "/v1/jobs", videoJobBody(tenant, false, durationS))
			if rec.Code != http.StatusAccepted {
				t.Fatalf("async submit = %d: %s", rec.Code, rec.Body.String())
			}
			id := decodeStatus(t, rec).ID
			ids = append(ids, id)
			return id
		}
		// Fill n0's four slots with ten-hour videos and wait until all four
		// run, then queue short jobs behind them.
		var long []string
		for _, tenant := range victimTenants {
			long = append(long, submit(tenant, 36000))
		}
		for _, id := range long {
			for st := ""; st != "running"; {
				st = decodeStatus(t, do(rt, http.MethodGet, "/v1/jobs/"+id, "")).Status
				if terminalStatus(st) {
					t.Fatalf("long job %s ended %s before the leave", id, st)
				}
			}
		}
		for i := 0; i < 8; i++ {
			submit(victimTenants[i%len(victimTenants)], 120)
		}
		before = rt.Stats()

		if err := rt.Leave("n0"); err != nil {
			t.Fatal(err)
		}
		if rt.Stats().NodeDownJobs > 0 {
			break
		}
		if attempt == 9 {
			t.Fatal("no leave caught a running job in 10 attempts")
		}
		rt.Close()
	}
	if err := rt.Leave("n1"); err == nil {
		t.Fatal("removing the last node must refuse")
	}

	// Every submitted job must reach a terminal state reachable through the
	// router — drained, rerouted (alias), or typed node_down. Rerouted jobs
	// finish asynchronously on the survivor, so poll with a deadline.
	for _, id := range ids {
		if st := waitTerminal(t, rt, id); st.ErrorCode == "node_down" && !strings.Contains(st.Error, "node_down") {
			t.Fatalf("node_down job lost its typed error: %+v", st)
		}
	}

	after := rt.Stats()
	if after.Leaves != 1 || len(after.Nodes) != 1 {
		t.Fatalf("post-leave shape: %+v", after)
	}
	// The drain must have exercised both deadline paths: the queued jobs
	// re-entered n1 and the running ones were typed node_down.
	if after.ReroutedJobs == 0 || after.NodeDownJobs == 0 {
		t.Fatalf("leave rerouted %d and typed %d node_down; want both > 0", after.ReroutedJobs, after.NodeDownJobs)
	}
	// Monotonic fold: the departed node's final counters are in the
	// retired totals, so nothing regresses.
	if r := regressed(before.Totals, after.Totals); len(r) > 0 {
		t.Fatalf("totals regressed across leave: %v", r)
	}
	// Only the departed node's tenants moved.
	if after.TenantsMoved == 0 {
		t.Fatal("leave moved no tenants despite n0 owning traffic")
	}
	// The healthz aggregate stays up on the survivor.
	if rec := do(rt, http.MethodGet, "/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz after leave = %d", rec.Code)
	}
}

// TestRouterRefusesBadBodiesWithoutNodes pins that decoding is the router's
// own work: a malformed or oversize body is answered 400 / 413 with no
// healthy node to ask, while a well-formed one finds nothing to route to.
func TestRouterRefusesBadBodiesWithoutNodes(t *testing.T) {
	rt := newTestRouter(t, Config{Nodes: 2, Seed: 7})
	rt.SetNodeHealth("n0", false)
	rt.SetNodeHealth("n1", false)
	for _, tc := range []struct {
		name, body string
		code       int
		want       string
	}{
		{"truncated", `{"tenant": `, http.StatusBadRequest, "invalid JSON"},
		{"unknown field", `{"tenant": "x", "bogus": 1}`, http.StatusBadRequest, `unknown field \"bogus\"`},
		{"oversize", `{"tenant": "x",` + strings.Repeat(" ", 2<<20) + `"description": "d"}`, http.StatusRequestEntityTooLarge, "request body exceeds 1048576 bytes"},
		{"well-formed", jobBody("x", true), http.StatusServiceUnavailable, "router: no healthy nodes"},
	} {
		rec := do(rt, http.MethodPost, "/v1/jobs", tc.body)
		if rec.Code != tc.code || !strings.Contains(rec.Body.String(), tc.want) {
			t.Errorf("%s: %d %s, want %d mentioning %q", tc.name, rec.Code, rec.Body.String(), tc.code, tc.want)
		}
	}
	if s := rt.Stats(); s.RoutedSubmits != 1 || s.Totals.Submitted != 0 {
		t.Fatalf("routed_submits = %d, node submissions = %d; want 1 and 0", s.RoutedSubmits, s.Totals.Submitted)
	}
}

func TestRouterHeartbeatAndHealthGating(t *testing.T) {
	rt := newTestRouter(t, Config{Nodes: 2, Seed: 7})
	if up := rt.HeartbeatOnce(); up != 2 {
		t.Fatalf("heartbeat up = %d, want 2", up)
	}
	// Force one node unhealthy: its tenants spill to the live node.
	if !rt.SetNodeHealth("n0", false) {
		t.Fatal("SetNodeHealth failed")
	}
	var spilled string
	for i := 0; i < 64 && spilled == ""; i++ {
		tenant := fmt.Sprintf("hb-%d", i)
		if owner, _ := rt.ring.NodeFor(tenant); owner == "n0" {
			spilled = tenant
		}
	}
	if spilled == "" {
		t.Fatal("no tenant owned by n0")
	}
	rec := do(rt, http.MethodPost, "/v1/jobs", jobBody(spilled, true))
	if rec.Code != http.StatusOK {
		t.Fatalf("spill submit = %d", rec.Code)
	}
	if id := decodeStatus(t, rec).ID; !strings.HasPrefix(id, "job-n1-") {
		t.Fatalf("unhealthy owner still served: id %q", id)
	}
	// Both nodes down: the router reports unavailable rather than routing.
	rt.SetNodeHealth("n1", false)
	if rec := do(rt, http.MethodGet, "/healthz", ""); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz with all down = %d", rec.Code)
	}
	if rec := do(rt, http.MethodPost, "/v1/jobs", jobBody("hb-x", true)); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit with all down = %d", rec.Code)
	}
	// A heartbeat restores health (the pools are actually fine).
	if up := rt.HeartbeatOnce(); up != 2 {
		t.Fatalf("heartbeat after recovery = %d", up)
	}
	s := rt.Stats()
	if s.Heartbeats != 2 {
		t.Fatalf("heartbeats = %d", s.Heartbeats)
	}
	for _, n := range s.Nodes {
		if !n.Healthy {
			t.Fatalf("node %s still unhealthy after heartbeat", n.Name)
		}
	}
}
