package router

import (
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// regressed names the fields of ClusterTotals — its own and every promoted
// core.Counters field — that are smaller in cur than in prev.
func regressed(prev, cur ClusterTotals) []string {
	pv, cv := reflect.ValueOf(prev), reflect.ValueOf(cur)
	var out []string
	for _, f := range reflect.VisibleFields(pv.Type()) {
		was, now := pv.FieldByIndex(f.Index), cv.FieldByIndex(f.Index)
		if was.CanInt() && now.Int() < was.Int() || was.CanUint() && now.Uint() < was.Uint() {
			out = append(out, fmt.Sprintf("%s %v -> %v", f.Name, was, now))
		}
	}
	return out
}

// totalsKeys is the router's /v1/stats "totals" key set: the five lifecycle
// keys (submitted, completed, failed, canceled, recycles) plus every
// core.Counters wire name. Order inside the object is free.
var totalsKeys = strings.Fields(`breaker_trips canceled cancels_lazy completed
	deadlines_exceeded degradations events_processed failed faults_injected
	key_intern_hits key_intern_misses overflow_events overload_enters overload_exits
	plan_conflicts plan_searches reconfig_conflicts reconfig_skips reconfig_wins
	reconfigs recycles retries_exhausted scratch_pool_hits scratch_pool_misses
	singleflight_hits slo_budget_exhausted slo_degraded_admits slo_met slo_missed
	slo_shed stage_timeouts submitted task_retries wheel_events`)

// TestTotalsKeySetPinned compares the encoded cluster totals against the
// recorded key set, a superset of the keys the totals had before they
// embedded core.Counters.
func TestTotalsKeySetPinned(t *testing.T) {
	rt := newTestRouter(t, Config{Nodes: 1, Seed: 7})
	if rec := do(rt, http.MethodPost, "/v1/jobs", jobBody("tenant-0", true)); rec.Code != http.StatusOK {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body.String())
	}
	rec := do(rt, http.MethodGet, "/v1/stats", "")
	var doc struct {
		Totals map[string]json.RawMessage `json:"totals"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	got := slices.Sorted(maps.Keys(doc.Totals))
	if !slices.Equal(got, totalsKeys) {
		t.Errorf("totals keys\n got %v\nwant %v", got, totalsKeys)
	}
}
