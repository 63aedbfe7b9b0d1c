package serving

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
)

// TestRetentionBoundsTelemetry replays the default trace with a retention
// window a small fraction of the served history and asserts the
// bounded-memory claim end to end: every job completes, the served history
// spans ≥ 10 retention windows, and the retained footprint stays far below
// the unbounded baseline's peak (which grows with history).
func TestRetentionBoundsTelemetry(t *testing.T) {
	res, err := RunRetention()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Jobs || res.Failed != 0 {
		t.Fatalf("jobs lost under retention: %+v", res)
	}
	if res.HistoryOverRetainX < 10 {
		t.Fatalf("served history %.1f× retention, want ≥ 10× for the plateau claim", res.HistoryOverRetainX)
	}
	if res.CompactedPoints == 0 {
		t.Fatal("compaction never ran")
	}
	if res.PeakPoints <= 0 || res.UnboundedPeakPoints <= res.PeakPoints {
		t.Fatalf("retained peak %d not below unbounded peak %d", res.PeakPoints, res.UnboundedPeakPoints)
	}
	// The plateau: the unbounded pool's footprint grows with history; the
	// retained pool holds a small multiple of one retention window. 4× is a
	// loose floor (measured ~25×) that still fails if compaction stops
	// bounding memory.
	if res.GrowthContainedX < 4 {
		t.Fatalf("retained peak %d vs unbounded %d (%.1f×): telemetry no longer bounded",
			res.PeakPoints, res.UnboundedPeakPoints, res.GrowthContainedX)
	}
}

// TestRunSmallTrace smoke-tests both architectures on a short trace: every
// job must complete through the HTTP surface in both modes.
func TestRunSmallTrace(t *testing.T) {
	opts := DefaultOptions()
	opts.Rate = 0.05
	opts.HorizonS = 200 // ~10 jobs
	opts.Clients = 4
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []ModeResult{res.Shared, res.PerRequest} {
		if m.Jobs == 0 || m.Completed != m.Jobs || m.Failed != 0 {
			t.Fatalf("%s: %+v", m.Mode, m)
		}
		if m.Throughput <= 0 || m.P95LatencyMs < m.P50LatencyMs {
			t.Fatalf("%s: inconsistent curve %+v", m.Mode, m)
		}
	}
	if res.ThroughputGainX <= 0 {
		t.Fatalf("gain = %v", res.ThroughputGainX)
	}
}

// TestPerRequestBaselineIsDeterministic drives the baseline arm's handler
// directly: every POST builds a fresh testbed, so the same job twice must
// report identical simulated results inline, on no shard.
func TestPerRequestBaselineIsDeterministic(t *testing.T) {
	const body = `{"description": "List objects shown/mentioned in the videos",
		"constraint": "MIN_COST", "min_quality": 0.95,
		"inputs": [{"name": "cats.mov", "kind": "video",
		            "attrs": {"duration_s": 240, "scene_len_s": 30, "frames_per_scene": 24}}]}`
	run := func(body string) (int, api.JobStatusResponse) {
		rec := httptest.NewRecorder()
		perRequestHandler(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
		var st api.JobStatusResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("decoding %q: %v", rec.Body.String(), err)
		}
		return rec.Code, st
	}
	codeA, a := run(body)
	codeB, b := run(body)
	if codeA != http.StatusOK || codeB != http.StatusOK || a.Result == nil || b.Result == nil {
		t.Fatalf("baseline did not return inline results: %d %+v / %d %+v", codeA, a, codeB, b)
	}
	if a.Result.MakespanS != b.Result.MakespanS || a.Result.GPUEnergyWh != b.Result.GPUEnergyWh {
		t.Fatalf("non-deterministic service: %+v vs %+v", a.Result, b.Result)
	}
	if a.Status != "done" || a.Shard != -1 {
		t.Fatalf("baseline job reports status %q shard %d, want done on -1", a.Status, a.Shard)
	}
	if code, st := run(`{"description": "x", "constraint": "FASTEST"}`); code != http.StatusBadRequest || st.Status != "failed" {
		t.Fatalf("invalid job = %d %+v, want a failed 400", code, st)
	}
}

// TestRunAdmissionSmallBurst smoke-tests the burst-admission harness: both
// arms must admit the full burst with no submission errors, dedup repeats
// through the singleflight layer, and keep conflict re-plans rare.
func TestRunAdmissionSmallBurst(t *testing.T) {
	opts := DefaultAdmissionOptions()
	opts.Jobs = 48
	opts.Shapes = 12
	opts.Trials = 1
	res, err := RunAdmission(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []AdmissionResult{res.Serial, res.Parallel} {
		if m.Jobs != opts.Jobs || m.SubmitErrors != 0 {
			t.Fatalf("%s: %+v", m.Mode, m)
		}
		if m.PlansPerSec <= 0 || m.SubmitP95Ms < m.SubmitP50Ms {
			t.Fatalf("%s: inconsistent curve %+v", m.Mode, m)
		}
	}
	if res.Serial.PlanSearches != 0 || res.Serial.SingleflightHits != 0 {
		t.Fatalf("serial arm dispatched searches: %+v", res.Serial)
	}
	if res.Parallel.PlanSearches == 0 {
		t.Fatalf("parallel arm never searched off-loop: %+v", res.Parallel)
	}
	// 12 shapes × 4 repeats: every repeat must dedup against the in-flight
	// search or probe the cache it populated — never search again.
	if res.Parallel.PlanSearches > opts.Shapes {
		t.Fatalf("searches %d exceed distinct shapes %d (dedup broken)",
			res.Parallel.PlanSearches, opts.Shapes)
	}
	if res.Parallel.ConflictFrac >= 0.10 {
		t.Fatalf("conflicts %.0f%% of admissions, want < 10%%", 100*res.Parallel.ConflictFrac)
	}
}

// TestRunReconfigDeterministicGain is the cheap in-suite version of
// BenchmarkReconfig: both arms complete every job of the replayed trace, the
// controller adopts at least one re-plan and the enabled arm improves mean
// completion. (TestScenariosDeterministic holds the replay half.)
func TestRunReconfigDeterministicGain(t *testing.T) {
	res, err := RunReconfig()
	if err != nil {
		t.Fatal(err)
	}
	if res.Off.Failed != 0 || res.On.Failed != 0 {
		t.Fatalf("failed jobs: off %d on %d", res.Off.Failed, res.On.Failed)
	}
	if res.Off.Reconfigs != 0 {
		t.Fatalf("off arm evaluated reconfigurations: %+v", res.Off)
	}
	if res.On.ReconfigWins == 0 {
		t.Fatalf("on arm adopted nothing: %+v", res.On)
	}
	if res.CompletionGainX <= 1 {
		t.Fatalf("no completion gain: %.3f (off %.1fs on %.1fs)",
			res.CompletionGainX, res.Off.MeanCompletionS, res.On.MeanCompletionS)
	}
}
