package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
)

func TestBodiesFollowTheSeed(t *testing.T) {
	for _, s := range specs {
		a, err := s.bodies(11, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := s.bodies(11, 3)
		if len(a) != s.epochJobs {
			t.Errorf("%s: %d bodies, want %d", s.name, len(a), s.epochJobs)
		}
		if !slices.EqualFunc(a, b, bytes.Equal) {
			t.Errorf("%s: same seed and epoch gave different bodies", s.name)
		}
		for _, other := range [][2]int64{{12, 3}, {11, 4}} {
			c, _ := s.bodies(other[0], int(other[1]))
			if slices.EqualFunc(a, c, bytes.Equal) {
				t.Errorf("%s: seed/epoch %v gave the bodies of seed 11 epoch 3", s.name, other)
			}
		}
	}
}

// shapeKey is a body's (shape, constraint): everything that decides the
// decomposition and the plan, without the names that only label it.
func shapeKey(t *testing.T, body []byte) string {
	t.Helper()
	var req api.JobRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(req.Constraint)
	for _, in := range req.Inputs {
		keys := make([]string, 0, len(in.Attrs))
		for k := range in.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "|%s", in.Kind)
		for _, k := range keys {
			fmt.Fprintf(&b, ",%s=%v", k, in.Attrs[k])
		}
	}
	return b.String()
}

func TestColdShapesAreDistinct(t *testing.T) {
	s, _ := specByName("plan_cold")
	for epoch := 0; epoch < 4; epoch++ {
		bodies, err := s.bodies(11, epoch)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, b := range bodies {
			seen[shapeKey(t, b)] = true
		}
		if frac := float64(len(seen)) / float64(len(bodies)); frac < 0.95 {
			t.Errorf("epoch %d: %.3f of the (shape, constraint) keys are distinct, want >= 0.95", epoch, frac)
		}
	}
}

func TestPercentiles(t *testing.T) {
	ramp := func(n int) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = float32(i + 1)
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		sorted []float32
		p      float64
		want   float32
	}{
		{"empty", nil, 0.5, 0},
		{"single", []float32{7}, 0.99, 7},
		{"median of 4 is the 2nd", ramp(4), 0.5, 2},
		{"p99 of 100 is the 99th", ramp(100), 0.99, 99},
		{"p99 of 101 rounds up", ramp(101), 0.99, 100},
		{"p100 is the max", ramp(10), 1, 10},
	} {
		if got := percentile(tc.sorted, tc.p); got != tc.want {
			t.Errorf("%s: percentile = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestChunker(t *testing.T) {
	// Chunk i is a ramp 1..chunkSize scaled by i+1, so its median is
	// (i+1)·chunkSize/2 and its p99 (i+1)·ceil(.99·chunkSize); over five chunks
	// the medians of those are the third chunk's.
	fill := func(c *chunker, chunks int, burst bool) {
		for i := 0; i < chunks; i++ {
			for j := 1; j <= chunkSize; j++ {
				x := float32(j * (i + 1))
				if burst && i == 0 {
					x = 1e9 // one chunk's worth of stalls
				}
				c.add(x)
			}
		}
	}
	rank99 := float64((99*chunkSize + 99) / 100)
	c := newChunker()
	fill(c, 5, false)
	c.add(7) // a trailing partial chunk does not count once a chunk filled
	if p50, p99 := c.percentiles(); p50 != 3*chunkSize/2 || p99 != 3*rank99 {
		t.Errorf("percentiles = %v %v, want %v %v", p50, p99, 3*chunkSize/2, 3*rank99)
	}
	// A burst that fills one chunk moves the median over chunks by one rank,
	// where it would drag a pooled p99 to the burst value.
	c = newChunker()
	fill(c, 5, true)
	if p50, p99 := c.percentiles(); p50 != 4*chunkSize/2 || p99 != 4*rank99 {
		t.Errorf("percentiles with a burst chunk = %v %v, want %v %v", p50, p99, 4*chunkSize/2, 4*rank99)
	}
	// Fewer samples than one chunk: the partial chunk is all there is.
	c = newChunker()
	for j := 1; j <= 100; j++ {
		c.add(float32(j))
	}
	if p50, p99 := c.percentiles(); p50 != 50 || p99 != 99 {
		t.Errorf("percentiles of a partial chunk = %v %v, want 50 99", p50, p99)
	}
	if p50, p99 := newChunker().percentiles(); p50 != 0 || p99 != 0 {
		t.Errorf("percentiles of nothing = %v %v, want 0 0", p50, p99)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each xs.
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{2, 4}, 1.5, 3, 4.5},
		{[]float64{5, 5, 5}, 5, 5, 5},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestParseStolen(t *testing.T) {
	for _, tc := range []struct {
		stat string
		want uint64
		ok   bool
	}{
		{"cpu  2 0 2 2 2 0 2 8857 0 0\ncpu0 1 0 1 1 1 0 1 4400 0 0\ncpu1 1 0 1 1 1 0 1 4458 0 0\nintr 5 1 2\n", 8858, true},
		{"cpu  1 2 3 4 5 6 7\ncpu0 1 2 3 4 5 6 7\n", 0, false}, // a kernel without the steal column
		{"", 0, false},
	} {
		if got, ok := parseStolen(tc.stat); got != tc.want || ok != tc.ok {
			t.Errorf("parseStolen(%q) = %v %v, want %v %v", tc.stat, got, ok, tc.want, tc.ok)
		}
	}
}

func TestTimingsPreferQuietEpochs(t *testing.T) {
	r := newRunner(specs[0], 11)
	for i := 1; i < chunkSize; i++ {
		r.quiet.lat.add(1)
	}
	if r.timings() != &r.all {
		t.Error("quiet epochs short of one latency chunk were preferred to all epochs")
	}
	r.quiet.lat.add(1)
	if r.timings() != &r.quiet {
		t.Error("quiet epochs that filled a latency chunk were not preferred")
	}
}

func TestSelfTimes(t *testing.T) {
	sp := func(trace int, name spanName, start, end int64) span {
		return span{trace: int32(trace), name: name, start: start, end: end}
	}
	for _, tc := range []struct {
		name  string
		spans []span
		want  map[spanName]int64
	}{
		{
			"router over api: the hop is the difference",
			[]span{sp(0, spRouterRequest, 0, 100), sp(0, spAPIRequest, 200, 270)},
			map[spanName]int64{spRouterRequest: 30, spAPIRequest: 70},
		},
		{
			"no router span in the trace: api.request subtracts from nothing",
			[]span{sp(1, spAPIRequest, 0, 70), sp(1, spCoreSubmit, 80, 90), sp(1, spCoreRun, 90, 120), sp(1, spAPIDecode, 0, 5)},
			map[spanName]int64{spAPIRequest: 70 - 10 - 30 - 5, spCoreSubmit: 10, spCoreRun: 30, spAPIDecode: 5, spRouterRequest: 0},
		},
		{
			"children subtract only within their own trace",
			[]span{sp(0, spCoreRun, 0, 50), sp(1, spReportFinalize, 0, 5), sp(0, spReportFinalize, 60, 62)},
			map[spanName]int64{spCoreRun: 48, spReportFinalize: 7},
		},
		{
			"several polls under several hops",
			[]span{sp(2, spRouterGet, 0, 10), sp(2, spRouterGet, 10, 22), sp(2, spAPIGet, 30, 34), sp(2, spAPIGet, 34, 39)},
			map[spanName]int64{spRouterGet: 22 - 9, spAPIGet: 9},
		},
	} {
		got := selfTimes(tc.spans)
		for name, want := range tc.want {
			if got[name] != want {
				t.Errorf("%s: self[%s] = %d, want %d", tc.name, spanNames[name], got[name], want)
			}
		}
	}
}

// TestEpochSmoke runs one epoch of every workload end to end (under -race
// this is the harness's concurrency test: two clients, the watchdog ticker,
// shard loops and plan workers at once).
func TestEpochSmoke(t *testing.T) {
	for _, s := range specs {
		r := newRunner(s, 11)
		if err := r.epoch(0); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if bad := r.checkRun(); len(bad) > 0 {
			t.Errorf("%s: %s", s.name, strings.Join(bad, "; "))
		}
		if want := s.epochJobs - s.warmup; r.done != want || r.attempted != s.epochJobs {
			t.Errorf("%s: %d timed of %d attempted, want %d of %d", s.name, r.done, r.attempted, want, s.epochJobs)
		}
		if want := (s.epochJobs - s.warmup + sampleEvery - 1) / sampleEvery; r.samples < want-1 || r.samples > want+1 {
			t.Errorf("%s: %d sampled responses, want ~%d", s.name, r.samples, want)
		}
		for name, x := range r.endToEnd() {
			if name != "failed_frac" && !(x > 0) {
				t.Errorf("%s: %s = %v, want > 0", s.name, name, x)
			}
		}
		if s.routed {
			if v := r.perLayer(nil); v["router.polls_per_job"] < 1 || v["router.node_share_max"] < 1 {
				t.Errorf("routed counters: polls/job %v, node share %v", v["router.polls_per_job"], v["router.node_share_max"])
			}
		}
	}
}

func TestTracedPassSmoke(t *testing.T) {
	for _, name := range []string{"plan_cold", "routed_poll"} {
		s, _ := specByName(name)
		L, err := tracedPass(s, 11, 48)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, n := spanTotals(L.spans)
		for sn := spanName(0); sn < numSpanNames; sn++ {
			routerSpan := sn == spRouterRequest || sn == spRouterGet || sn == spRouterStats
			if (n[sn] == 0) != (routerSpan && !s.routed) {
				t.Errorf("%s: %d %s spans", name, n[sn], spanNames[sn])
			}
		}
		v := newRunner(s, 11).perLayer(L)
		// (The hop's sign is a property of 2,000 jobs, not of 48: one GC pause
		// in an api.request span can outweigh it here.)
		if got := v["router.request_us"]; (got > 0) != s.routed {
			t.Errorf("%s: router.request_us = %v", name, got)
		}
		if got := v["router.hop_self_us"]; !s.routed && got != 0 {
			t.Errorf("%s: router.hop_self_us = %v off the routed workload", name, got)
		}
		path := t.TempDir() + "/spans.jsonl"
		if err := writeSpans(path, L.spans); err != nil {
			t.Fatal(err)
		}
		b, _ := os.ReadFile(path)
		if lines := bytes.Count(b, []byte("\n")); lines != len(L.spans) {
			t.Errorf("%s: span file has %d lines for %d spans", name, lines, len(L.spans))
		}
	}
}

// stuckHandler never answers a POST: with honourCancel it returns when the
// request's context ends (what a wait:true handler does on a wedged shard),
// without it only when the test ends.
type stuckHandler struct {
	honourCancel bool
	release      chan struct{}
}

func (h stuckHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.honourCancel {
		select {
		case <-r.Context().Done():
		case <-h.release:
		}
		w.WriteHeader(http.StatusAccepted)
		return
	}
	<-h.release
}

func TestWatchdogAbandonsAWedgedServer(t *testing.T) {
	for _, honour := range []bool{true, false} {
		release := make(chan struct{})
		s, _ := specByName("plan_cold") // no warm-up: the timed phase wedges
		r := newRunner(s, 11)
		r.deadline = 40 * time.Millisecond
		closed := false
		r.build = func() (server, error) {
			return server{h: stuckHandler{honour, release}, close: func() { closed = true }}, nil
		}
		t0 := time.Now()
		r.stats = func(http.Handler, bool) (statsView, error) { return statsView{}, nil }
		if err := r.epoch(0); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(t0); took > 2*time.Second {
			t.Errorf("honourCancel=%v: epoch took %v, the watchdog should cut it at ~%v", honour, took, r.deadline)
		}
		if r.wedged != 1 || r.failed != s.epochJobs || r.done != 0 || closed {
			t.Errorf("honourCancel=%v: wedged %d failed %d timed %d closed %v, want 1 %d 0 false",
				honour, r.wedged, r.failed, r.done, closed, s.epochJobs)
		}
		if bad := r.checkRun(); len(bad) == 0 {
			t.Errorf("honourCancel=%v: checkRun passed a run whose every job failed", honour)
		}
		close(release)
	}
}

// TestMeasureEndsWhenEveryEpochWedges: a build that wedges every epoch has no
// timed phase to fill the budget with, and the run must still end.
func TestMeasureEndsWhenEveryEpochWedges(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s, _ := specByName("plan_cold")
	r := newRunner(s, 11)
	r.deadline = 20 * time.Millisecond
	r.build = func() (server, error) {
		return server{h: stuckHandler{false, release}, close: func() {}}, nil
	}
	r.stats = func(http.Handler, bool) (statsView, error) { return statsView{}, nil }
	finished := make(chan error, 1)
	go func() { finished <- r.measure(50 * time.Millisecond) }()
	select {
	case err := <-finished:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("measure(50ms) against a server that never answers was still running after 3 s")
	}
	if r.wedged < 1 || r.failed != r.attempted || r.done != 0 {
		t.Errorf("wedged %d, failed %d of %d, timed %d; want every job of every epoch failed", r.wedged, r.failed, r.attempted, r.done)
	}
	if got := r.endToEnd()["failed_frac"]; got != 1 {
		t.Errorf("failed_frac = %v, want 1", got)
	}
}

var update = flag.Bool("update", false, "rewrite BENCHMARK.json from the workload and metric tables")

// contractJSON renders BENCHMARK.json from the workload and metric tables.
func contractJSON(t *testing.T) []byte {
	t.Helper()
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type gated struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []gated    `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/ledger/run.sh"},
		Paths:      []string{"bench/ledger"},
		RunSeconds: runSeconds,
	}
	for _, s := range specs {
		doc.Workloads = append(doc.Workloads, workload{s.name, s.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, gated{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, d.better})
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(doc); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestContractFile keeps BENCHMARK.json equal to the program's own tables, so
// the contract and the program cannot drift apart. After changing a table:
//
//	go test ./bench/ledger -run TestContractFile -update
func TestContractFile(t *testing.T) {
	const path = "../../BENCHMARK.json"
	got := contractJSON(t)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables in metrics.go/workloads.go; regenerate it:\n  go test ./bench/ledger -run TestContractFile -update")
	}
	if len(endToEnd) < 1 || endToEnd[0].name != "setup_s" {
		t.Errorf("the contract requires setup_s among the end-to-end metrics")
	}
	seen := map[string]bool{}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		if seen[d.name] || len(d.name) > 64 || len(d.unit) > 16 || (d.better != "lower" && d.better != "higher") || d.bound > 0.25 {
			t.Errorf("metric %+v breaks the contract's limits or repeats a name", d)
		}
		seen[d.name] = true
	}
}
