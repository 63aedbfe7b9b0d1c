package api

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// poolGauges are PoolStats' numeric fields that are live readings, not
// totals: they may fall between two snapshots.
var poolGauges = []string{"Running", "Queued", "EnginesUp", "JobsTracked", "TelemetryPoints",
	"TelemetryBytes", "PlanSearchInflight", "BreakerOpen", "UptimeS"}

// assertTotalsMonotonic fails if any pool total moved backwards between two
// successive Stats snapshots: every numeric field PoolStats shows, promoted
// counters included, except the gauges, and every numeric field of every
// tenant row except the recomputed attainment.
func assertTotalsMonotonic(t *testing.T, when string, prev, cur PoolStats) {
	t.Helper()
	for _, f := range backwards(prev, cur, poolGauges...) {
		t.Errorf("%s: %s went backwards", when, f)
	}
	rows := map[string]TenantSLOJSON{}
	for _, row := range cur.TenantSLO {
		rows[row.Tenant] = row
	}
	for _, was := range prev.TenantSLO {
		now, ok := rows[was.Tenant]
		if fs := backwards(was, now, "Attainment"); !ok || len(fs) > 0 {
			t.Errorf("%s: tenant row went backwards (%v): %+v -> %+v (present %v)", when, fs, was, now, ok)
		}
	}
}

// backwards names the numeric fields of prev's struct type, promoted ones
// included, that are smaller in cur, apart from the skipped names.
func backwards(prev, cur any, skip ...string) []string {
	pv, cv := reflect.ValueOf(prev), reflect.ValueOf(cur)
	var out []string
	for _, f := range reflect.VisibleFields(pv.Type()) {
		was, now := pv.FieldByIndex(f.Index), cv.FieldByIndex(f.Index)
		if (was.CanInt() && now.Int() < was.Int() || was.CanUint() && now.Uint() < was.Uint() ||
			was.CanFloat() && now.Float() < was.Float()) && !slices.Contains(skip, f.Name) {
			out = append(out, fmt.Sprintf("%s %v -> %v", f.Name, was, now))
		}
	}
	return out
}

// TestTotalsNeverDecreaseAcrossRecyclesAndClose is the one monotonicity proof
// for every counter: a tight series budget recycles the shard under each
// wave (SLO shedding, off-loop planning and plain traffic all on), and no
// total may move backwards between successive Stats() snapshots — through
// the recycles and through Close, which retires the live shards too.
func TestTotalsNeverDecreaseAcrossRecyclesAndClose(t *testing.T) {
	s, err := NewServer(PoolConfig{
		Shards:                1,
		MaxConcurrentPerShard: 1,
		RetainSimSeconds:      math.Inf(1),
		MaxSeriesPoints:       64, // every busy shard overruns: recycles guaranteed
		SLO:                   true,
		SLOQueueBound:         1,
		SLOTenantTiers:        map[string]string{"churn": "bronze"},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	t.Cleanup(func() { srv.Close(); s.Close() })

	last := s.Pool().Stats()
	// Six waves at least, and more (bounded) until a recycle has swapped the
	// shard: the swap runs on its own goroutine, which a loaded host can
	// leave behind the waves.
	for wave := 0; wave < 6 || (last.Recycles == 0 && wave < 60); wave++ {
		// One runs, one queues, the rest shed on the bound; then a plain job
		// for a second tenant so unmapped rows fold too.
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
					strings.NewReader(qualityJobJSON("churn", `"wait": true,`)))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}()
		}
		wg.Wait()
		mustServe(t, srv, waitBody(fmt.Sprintf("tenant-%d", wave)))
		st := s.Pool().Stats()
		assertTotalsMonotonic(t, fmt.Sprintf("wave %d", wave), last, st)
		last = st
	}
	if last.Recycles == 0 {
		t.Fatalf("workload never recycled a shard; monotonicity across recycles untested: %+v", last)
	}
	if last.SLOShed == 0 || last.EventsProcessed == 0 || last.PlanSearches == 0 || len(last.TenantSLO) < 2 {
		t.Fatalf("workload left the counters it is meant to churn at zero: %+v", last)
	}
	s.Close()
	closed := s.Pool().Stats()
	assertTotalsMonotonic(t, "close", last, closed)
	if len(closed.Shards) != 0 {
		t.Fatalf("closed pool still lists %d live shards", len(closed.Shards))
	}
}

// TestDrainingShardKeepsTenantRowsAndPeak: between the recycle swap and the
// end of the drain a displaced shard is on p.draining, and Stats must keep
// reporting its tenant rows and peak_pending, not just its scalar counters.
// The test performs the swap by hand (exactly recycleShard's critical
// section), reads Stats while the shard is parked, then retires it.
func TestDrainingShardKeepsTenantRowsAndPeak(t *testing.T) {
	s, err := NewServer(PoolConfig{
		Shards: 1, SLO: true, SLOTenantTiers: map[string]string{"bob": "bronze"},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	t.Cleanup(func() { srv.Close(); s.Close() })
	for i := 0; i < 3; i++ {
		mustServe(t, srv, qualityJobJSON("bob", `"wait": true,`))
	}
	p := s.Pool()
	before := p.Stats()
	if len(before.TenantSLO) != 1 || before.TenantSLO[0].Admitted != 3 || before.PeakPending == 0 {
		t.Fatalf("setup: tenant rows %+v peak %d", before.TenantSLO, before.PeakPending)
	}

	fresh, err := p.newShard(0)
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	old := p.shards[0]
	p.shards[0] = fresh
	p.draining = append(p.draining, old)
	p.mu.Unlock()

	during := p.Stats()
	assertTotalsMonotonic(t, "draining", before, during)
	if !reflect.DeepEqual(during.TenantSLO, before.TenantSLO) || during.PeakPending != before.PeakPending {
		t.Fatalf("draining shard's totals changed: tenant rows %+v -> %+v, peak %d -> %d",
			before.TenantSLO, during.TenantSLO, before.PeakPending, during.PeakPending)
	}

	old.close()
	p.retireShard(old)
	after := p.Stats()
	assertTotalsMonotonic(t, "retired", during, after)
	if !reflect.DeepEqual(after.TenantSLO, before.TenantSLO) || after.Counters != before.Counters {
		t.Fatalf("retiring the shard changed the totals: %+v -> %+v", before, after)
	}
}

// The /v1/stats key sets as recorded at the commit before a Counters struct
// replaced the hand-mirrored fields: the wire contract is the set of keys
// (order inside an object is free). tenant_slo is omitted when empty.
var (
	poolStatsKeys = strings.Fields(`breaker_open breaker_trips canceled cancels_lazy completed
		deadlines_exceeded degradations engines_up events_processed failed faults_injected
		jobs_tracked key_intern_hits key_intern_misses memory mode overflow_events overload_active
		overload_enters overload_exits peak_pending plan_conflicts plan_search_inflight plan_searches
		queued reconfig_conflicts reconfig_skips reconfig_wins reconfigs recycles retries_exhausted
		running scratch_pool_hits scratch_pool_misses shards singleflight_hits slo_budget_exhausted
		slo_degraded_admits slo_met slo_missed slo_shed stage_timeouts submitted task_retries
		telemetry_bytes telemetry_points uptime_s wheel_events`)
	shardStatsKeys = strings.Fields(`breaker_open breaker_trips canceled cancels_lazy capacity_gen
		cluster_gen compacted_points completed deadlines_exceeded decomp_cache_hits degradations
		engines epoch events_processed failed faults_injected key_intern_hits key_intern_misses
		mean_gpu_util overflow_events overload_active overload_enters overload_exits peak_pending
		peak_running plan_cache_hits plan_conflicts plan_search_inflight plan_searches plan_workers
		queued reconfig_conflicts reconfig_skips reconfig_wins reconfigs retries_exhausted
		rollup_buckets running scratch_pool_hits scratch_pool_misses shard sim_time_s
		singleflight_hits slo_budget_exhausted slo_degraded_admits slo_met slo_missed slo_shed
		stage_timeouts submitted task_retries telemetry_bytes telemetry_points watermark_s
		wheel_events`)
	tenantSLOKeys = strings.Fields(`admitted attainment budget_exhausted class cost_spent_usd
		degraded_admits shed slo_met slo_missed tenant`)
)

// TestStatsKeySetPinned compares the encoder's output against the recorded
// key sets, with SLO tiers off and on (where tenant_slo appears at both
// levels), and pins "mode" to its one remaining value.
func TestStatsKeySetPinned(t *testing.T) {
	keysOf := func(raw json.RawMessage) []string {
		t.Helper()
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		return keys
	}
	for _, slo := range []bool{false, true} {
		srv := server(t, PoolConfig{Shards: 1, SLO: slo})
		mustServe(t, srv, qualityJobJSON("bob", `"wait": true,`))
		resp, err := http.Get(srv.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var doc struct {
			Mode      string            `json:"mode"`
			Shards    []json.RawMessage `json:"shards"`
			TenantSLO []json.RawMessage `json:"tenant_slo"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Shards) != 1 {
			t.Fatalf("slo=%v: decoding stats (%v): %s", slo, err, raw)
		}
		wantPool, wantShard := slices.Clone(poolStatsKeys), slices.Clone(shardStatsKeys)
		if slo {
			wantPool, wantShard = append(wantPool, "tenant_slo"), append(wantShard, "tenant_slo")
			slices.Sort(wantPool)
			slices.Sort(wantShard)
			if len(doc.TenantSLO) != 1 || !slices.Equal(keysOf(doc.TenantSLO[0]), tenantSLOKeys) {
				t.Errorf("tenant_slo rows = %s, want one row with keys %v", doc.TenantSLO, tenantSLOKeys)
			}
		}
		if got := keysOf(raw); !slices.Equal(got, wantPool) {
			t.Errorf("slo=%v: pool keys\n got %v\nwant %v", slo, got, wantPool)
		}
		if got := keysOf(doc.Shards[0]); !slices.Equal(got, wantShard) {
			t.Errorf("slo=%v: shard keys\n got %v\nwant %v", slo, got, wantShard)
		}
		if doc.Mode != "shared" {
			t.Errorf("slo=%v: mode = %q, want the constant \"shared\"", slo, doc.Mode)
		}
	}
}

// TestSubmitBodyLimit: a POST /v1/jobs body past the 1 MiB bound is answered
// 413 in the error envelope; one just inside it still reaches validation.
func TestSubmitBodyLimit(t *testing.T) {
	srv := defaultServer(t)
	for _, tc := range []struct {
		name string
		pad  int
		want int
	}{
		{"2 MiB body", 2 << 20, http.StatusRequestEntityTooLarge},
		{"just inside the bound", maxSubmitBody - 1024, http.StatusAccepted},
	} {
		// Pad with JSON whitespace, not description text: the planner prices a
		// description by length, and a megabyte of it overflows an engine's KV
		// capacity (a separate hostile-input defect, ROADMAP item 7).
		body := fmt.Sprintf(`{%s"description":"Generate social media newsfeed for u",
			"inputs":[{"name":"u","kind":"user-profile"},{"name":"cats","kind":"topic"}]}`,
			strings.Repeat(" ", tc.pad))
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e errorBody
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d (%q)", tc.name, resp.StatusCode, tc.want, e.Error)
		}
		if tc.want == http.StatusRequestEntityTooLarge && !strings.Contains(e.Error, "exceeds 1048576 bytes") {
			t.Errorf("%s: error = %q, want the bound in the envelope", tc.name, e.Error)
		}
	}
}
