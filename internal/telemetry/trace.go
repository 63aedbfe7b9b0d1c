package telemetry

import (
	"fmt"
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

// Tracer accumulates spans. It is not goroutine-safe; the simulation is
// single-threaded by construction.
type Tracer struct {
	// spans holds completed spans in completion order — the order Spans
	// hands to its (unstable) sort, so it is part of the output.
	spans []Span
	// open holds the spans started and not yet ended, in no particular
	// order, and ids[i] the id Start gave open[i]. A job has a stage's
	// parallelism plus its in-flight LLM calls open at once, so End finds its
	// span by a short linear search.
	open []Span
	ids  []int32
	next int32
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// NewTracerSized returns an empty tracer with room for spans completed spans
// and open spans in flight at once; within those sizes Start and End do not
// allocate. Size both from the job being traced (its graph's length, how many
// of its tasks can run at once): a constant large enough for the biggest job
// costs every small job the difference.
func NewTracerSized(spans, open int) *Tracer {
	tr := &Tracer{}
	tr.Init(make([]Span, spans+open), make([]int32, open))
	return tr
}

// Init makes tr an empty tracer that keeps its spans in storage the caller
// owns: as many spans open at once as ids is long, and the rest of spans for
// completed ones. Past either size the tracer moves that part to storage of
// its own.
func (tr *Tracer) Init(spans []Span, ids []int32) {
	done := len(spans) - len(ids)
	*tr = Tracer{spans: spans[:0:done], open: spans[done:done:len(spans)], ids: ids[:0:len(ids)]}
}

// Start opens a span at time t and returns its id for the matching End call.
func (tr *Tracer) Start(track, label string, t float64) int {
	id := tr.next
	tr.next++
	tr.open = append(tr.open, Span{Track: track, Label: label, Start: t})
	tr.ids = append(tr.ids, id)
	return int(id)
}

// End closes the span with the given id at time t. Unknown ids and reversed
// intervals panic: they indicate broken instrumentation, not a runtime
// condition to tolerate.
func (tr *Tracer) End(id int, t float64) {
	for i, open := range tr.ids {
		if int(open) != id {
			continue
		}
		sp := tr.open[i]
		if t < sp.Start {
			panic(fmt.Sprintf("telemetry: span %d ends at %v before start %v", id, t, sp.Start))
		}
		last := len(tr.open) - 1
		tr.open[i], tr.ids[i] = tr.open[last], tr.ids[last]
		tr.open[last] = Span{}
		tr.open, tr.ids = tr.open[:last], tr.ids[:last]
		sp.End = t
		tr.spans = append(tr.spans, sp)
		return
	}
	panic(fmt.Sprintf("telemetry: End of unknown span %d", id))
}

// Add records a complete span directly.
func (tr *Tracer) Add(sp Span) {
	if sp.End < sp.Start {
		panic("telemetry: span with negative duration")
	}
	tr.spans = append(tr.spans, sp)
}

// Spans returns completed spans sorted by start time (ties by track then
// label, for deterministic output).
func (tr *Tracer) Spans() []Span {
	out := make([]Span, len(tr.spans))
	copy(out, tr.spans)
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
func (tr *Tracer) OpenCount() int { return len(tr.open) }

// Tracks returns the distinct track names in first-seen order.
func (tr *Tracer) Tracks() []string {
	seen := map[string]bool{}
	var tracks []string
	for _, sp := range tr.spans {
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
	for _, sp := range tr.spans {
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
	for _, sp := range tr.spans {
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
