package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// spanName indexes spanNames; spans store the index, not the string.
type spanName uint8

const (
	spRouterRequest spanName = iota
	spRouterGet
	spRouterStats
	spTransportRequest
	spAPIRequest
	spAPIGet
	spAPIStats
	spAPIDecode
	spAPIEncode
	spCoreSubmit
	spCoreRun
	spReportFinalize
	spPlannerDecompose
	spDagBuildFreeze
	spOptimizerPlan
	spDagTracker
	numSpanNames
)

// spanNames and spanParents define the span tree. A parent is a span of the
// same trace id (= job index) that the child's work happens inside. Because
// the ledger may only wrap calls from outside, a child is the same job
// replayed against the inner layer alone, not an observation from inside the
// parent; self time is therefore duration arithmetic, not interval overlap.
var (
	spanNames = [numSpanNames]string{
		spRouterRequest:    "router.request",
		spRouterGet:        "router.get",
		spRouterStats:      "router.stats",
		spTransportRequest: "transport.request",
		spAPIRequest:       "api.request",
		spAPIGet:           "api.get",
		spAPIStats:         "api.stats",
		spAPIDecode:        "api.decode",
		spAPIEncode:        "api.encode",
		spCoreSubmit:       "core.submit",
		spCoreRun:          "core.run",
		spReportFinalize:   "report.finalize",
		spPlannerDecompose: "planner.decompose",
		spDagBuildFreeze:   "dag.build_freeze",
		spOptimizerPlan:    "optimizer.plan",
		spDagTracker:       "dag.tracker",
	}
	// spanParents[n] is n's parent; numSpanNames marks a root. On a
	// non-routed workload router.request is absent and api.request is the
	// root in effect. planner.decompose, optimizer.plan and dag.tracker are
	// cold probes: what the job's decomposition, plan search and frontier
	// walk cost with no cache, whether or not the serving path paid them.
	spanParents = [numSpanNames]spanName{
		spRouterRequest:    numSpanNames,
		spRouterGet:        numSpanNames,
		spRouterStats:      numSpanNames,
		spTransportRequest: numSpanNames,
		spAPIRequest:       spRouterRequest,
		spAPIGet:           spRouterGet,
		spAPIStats:         spRouterStats,
		spAPIDecode:        spAPIRequest,
		spAPIEncode:        spAPIRequest,
		spCoreSubmit:       spAPIRequest,
		spCoreRun:          spAPIRequest,
		spReportFinalize:   spCoreRun,
		spPlannerDecompose: numSpanNames,
		spDagBuildFreeze:   spPlannerDecompose,
		spOptimizerPlan:    numSpanNames,
		spDagTracker:       numSpanNames,
	}
)

// span is one timed call into a layer. Times are ns since the tracer's base.
type span struct {
	trace      int32
	name       spanName
	start, end int64
}

// tracer keeps spans in memory; they are written out when the pass ends. A
// nil tracer records nothing, which is how the untraced twin of a stage runs
// the identical code.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, capacity)}
}

// begin returns the start stamp for a span about to open.
func (t *tracer) begin() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

// end closes a span opened at start.
func (t *tracer) end(trace int, name spanName, start int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{trace: int32(trace), name: name, start: start, end: int64(time.Since(t.base))})
}

// spanTotals sums durations (ns) and counts spans by name.
func spanTotals(spans []span) (dur [numSpanNames]int64, n [numSpanNames]int) {
	for _, s := range spans {
		dur[s.name] += s.end - s.start
		n[s.name]++
	}
	return dur, n
}

// selfTimes derives each name's total self time (ns): its spans' durations
// minus the durations of its child spans, trace by trace. A child whose
// parent did not run in that trace subtracts from nothing.
func selfTimes(spans []span) [numSpanNames]int64 {
	type key struct {
		trace int32
		name  spanName
	}
	ran := make(map[key]bool, len(spans))
	for _, s := range spans {
		ran[key{s.trace, s.name}] = true
	}
	var self [numSpanNames]int64
	for _, s := range spans {
		d := s.end - s.start
		self[s.name] += d
		if p := spanParents[s.name]; p != numSpanNames && ran[key{s.trace, p}] {
			self[p] -= d
		}
	}
	return self
}

// writeSpans writes one JSON object per span: trace (job index), name,
// parent ("" for a root), start_ns and end_ns since the pass began.
func writeSpans(path string, spans []span) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("writing spans: %w", cerr)
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		parent := ""
		if p := spanParents[s.name]; p != numSpanNames {
			parent = spanNames[p]
		}
		rec := struct {
			Trace   int32  `json:"trace"`
			Name    string `json:"name"`
			Parent  string `json:"parent"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
		}{s.trace, spanNames[s.name], parent, s.start, s.end}
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
