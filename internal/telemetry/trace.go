package telemetry

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Span is one agent execution interval on a named track — one bar in the
// Figure 3 timeline. Track groups spans onto a row (e.g. "Speech-to-Text"),
// Label annotates the individual execution (e.g. "scene 3").
type Span struct {
	Track string
	Label string
	Start float64
	End   float64
}

// Duration returns the span length in seconds.
func (s Span) Duration() float64 { return s.End - s.Start }

// NodeSpan is a span kept by node index: 24 bytes where a Span, with its two
// strings, is 48. A job's execution records one per task — every job, traced
// or not — so they stay index-shaped until someone reads the tracer, which
// then asks its SpanNamer for each one's track and label.
type NodeSpan struct {
	Node       int32
	Start, End float64
}

// SpanNamer renders the track and label of the spans a tracer keeps by node
// index (a job's execution, from its graph).
type SpanNamer interface {
	SpanName(node int32) (track, label string)
}

// Tracer accumulates spans. It is not goroutine-safe; the simulation is
// single-threaded by construction.
//
// A span in flight is its starter's to keep — Start hands it out, End takes
// it back — and the tracer only counts how many are out, so neither call
// searches anything. Completed spans are held in completion order: the order
// Spans hands to its (unstable) sort, so it is part of the output.
type Tracer struct {
	// spans holds the completed spans of Start/End and Add; nodes those of
	// StartNode/EndNode, named by namer when read. A tracer is fed one way or
	// the other.
	spans []Span
	nodes []NodeSpan
	namer SpanNamer
	open  int
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Init makes tr an empty tracer that keeps its spans by node index, in
// storage the caller owns — size it from the job being traced (one span per
// node of its graph; a retried task's extra span moves the tracer to storage
// of its own) — and names them through namer when someone reads it.
func (tr *Tracer) Init(namer SpanNamer, nodes []NodeSpan) {
	*tr = Tracer{namer: namer, nodes: nodes[:0]}
}

// Start opens a span at time t. The caller keeps it for the matching End.
func (tr *Tracer) Start(track, label string, t float64) Span {
	tr.open++
	return Span{Track: track, Label: label, Start: t, End: t}
}

// End closes sp, a span Start opened, at time t. A reversed interval and an
// End with no span open panic: they indicate broken instrumentation, not a
// runtime condition to tolerate.
func (tr *Tracer) End(sp Span, t float64) {
	tr.close(sp.Start, t)
	sp.End = t
	tr.spans = append(tr.spans, sp)
}

// StartNode opens a span kept by node index. The caller keeps its node and
// start time for the matching EndNode.
func (tr *Tracer) StartNode() { tr.open++ }

// EndNode closes the span a StartNode opened for node at time start, with
// End's checks.
func (tr *Tracer) EndNode(node int32, start, t float64) {
	tr.close(start, t)
	tr.nodes = append(tr.nodes, NodeSpan{Node: node, Start: start, End: t})
}

func (tr *Tracer) close(start, t float64) {
	if tr.open == 0 {
		panic(fmt.Sprintf("telemetry: span ending at %v was never started, or ended twice", t))
	}
	if t < start {
		panic(fmt.Sprintf("telemetry: span ends at %v before start %v", t, start))
	}
	tr.open--
}

// Add records a complete span directly.
func (tr *Tracer) Add(sp Span) {
	if sp.End < sp.Start {
		panic("telemetry: span with negative duration")
	}
	tr.spans = append(tr.spans, sp)
}

// completed returns the completed spans in completion order: the tracer's own
// slice, or — for spans kept by node index — a fresh one with each span named.
// Callers that modify the result copy it first.
func (tr *Tracer) completed() []Span {
	if tr.namer == nil {
		return tr.spans
	}
	out := make([]Span, len(tr.nodes))
	for i, ns := range tr.nodes {
		track, label := tr.namer.SpanName(ns.Node)
		out[i] = Span{Track: track, Label: label, Start: ns.Start, End: ns.End}
	}
	return out
}

// Spans returns completed spans sorted by start time (ties by track then
// label, for deterministic output).
func (tr *Tracer) Spans() []Span {
	out := slices.Clone(tr.completed())
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].Track != out[j].Track {
			return out[i].Track < out[j].Track
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// OpenCount reports spans started but not ended — nonzero after a run means
// an agent never completed.
func (tr *Tracer) OpenCount() int { return tr.open }

// Tracks returns the distinct track names in first-seen order.
func (tr *Tracer) Tracks() []string {
	seen := map[string]bool{}
	var tracks []string
	for _, sp := range tr.completed() {
		if !seen[sp.Track] {
			seen[sp.Track] = true
			tracks = append(tracks, sp.Track)
		}
	}
	return tracks
}

// Makespan returns the latest span end time (the workflow completion time
// when the tracer covers a whole run).
func (tr *Tracer) Makespan() float64 {
	max := 0.0
	for _, sp := range tr.completed() {
		if sp.End > max {
			max = sp.End
		}
	}
	return max
}

// TrackBusy returns total busy time on a track, counting overlapping spans
// once (union of intervals).
func (tr *Tracer) TrackBusy(track string) float64 {
	type iv struct{ s, e float64 }
	var ivs []iv
	for _, sp := range tr.completed() {
		if sp.Track == track {
			ivs = append(ivs, iv{sp.Start, sp.End})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
	busy, end := 0.0, -1.0
	start := 0.0
	active := false
	for _, v := range ivs {
		if !active {
			start, end, active = v.s, v.e, true
			continue
		}
		if v.s <= end {
			if v.e > end {
				end = v.e
			}
		} else {
			busy += end - start
			start, end = v.s, v.e
		}
	}
	if active {
		busy += end - start
	}
	return busy
}

// Gantt renders the spans as an ASCII timeline, one row per track, matching
// the layout of the paper's Figure 3 execution traces. width is the number of
// character columns used for the time axis.
func Gantt(tr *Tracer, width int) string {
	spans := tr.Spans()
	if len(spans) == 0 {
		return "(no spans)\n"
	}
	if width < 10 {
		width = 10
	}
	makespan := tr.Makespan()
	if makespan <= 0 {
		makespan = 1
	}
	scale := float64(width) / makespan

	tracks := tr.Tracks()
	nameWidth := 0
	for _, t := range tracks {
		if len(t) > nameWidth {
			nameWidth = len(t)
		}
	}

	var b strings.Builder
	for _, track := range tracks {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, sp := range spans {
			if sp.Track != track {
				continue
			}
			lo := int(sp.Start * scale)
			hi := int(sp.End * scale)
			if hi >= width {
				hi = width - 1
			}
			if lo > hi {
				lo = hi
			}
			for i := lo; i <= hi; i++ {
				row[i] = '#'
			}
		}
		fmt.Fprintf(&b, "%-*s |%s|\n", nameWidth, track, string(row))
	}
	fmt.Fprintf(&b, "%-*s  0%*s%.0fs\n", nameWidth, "", width-1, "", makespan)
	return b.String()
}

// SpansCSV renders spans as CSV (track,label,start,end) for external
// plotting of the Figure 3 traces.
func SpansCSV(tr *Tracer) string {
	var b strings.Builder
	b.WriteString("track,label,start_s,end_s\n")
	for _, sp := range tr.Spans() {
		fmt.Fprintf(&b, "%s,%s,%.3f,%.3f\n",
			csvEscape(sp.Track), csvEscape(sp.Label), sp.Start, sp.End)
	}
	return b.String()
}

// SeriesCSV renders named step series resampled on a shared grid, e.g. the
// CPU/GPU utilization curves of Figure 3.
func SeriesCSV(names []string, series []*StepSeries, t0, t1, dt float64) string {
	if len(names) != len(series) {
		panic("telemetry: names/series length mismatch")
	}
	var b strings.Builder
	b.WriteString("time_s")
	for _, n := range names {
		b.WriteString("," + csvEscape(n))
	}
	b.WriteString("\n")
	cols := make([][]float64, len(series))
	for i, s := range series {
		cols[i] = s.Resample(t0, t1, dt)
	}
	n := 0
	if len(cols) > 0 {
		n = len(cols[0])
	}
	for row := 0; row < n; row++ {
		fmt.Fprintf(&b, "%.3f", t0+float64(row)*dt)
		for i := range cols {
			fmt.Fprintf(&b, ",%.4f", cols[i][row])
		}
		b.WriteString("\n")
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
