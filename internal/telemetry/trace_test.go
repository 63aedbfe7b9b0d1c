package telemetry

import (
	"strconv"
	"strings"
	"testing"
)

func TestTracerStartEnd(t *testing.T) {
	tr := NewTracer()
	id := tr.Start("STT", "scene-0", 1)
	if tr.OpenCount() != 1 {
		t.Fatalf("open = %d, want 1", tr.OpenCount())
	}
	tr.End(id, 4)
	if tr.OpenCount() != 0 {
		t.Fatalf("open = %d after End, want 0", tr.OpenCount())
	}
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Track != "STT" || sp.Label != "scene-0" || sp.Start != 1 || sp.End != 4 {
		t.Fatalf("span = %+v", sp)
	}
	if sp.Duration() != 3 {
		t.Fatalf("duration = %v, want 3", sp.Duration())
	}
}

func TestTracerUnknownEndPanics(t *testing.T) {
	tr := NewTracer()
	defer func() {
		if recover() == nil {
			t.Fatal("End of a span the tracer never started did not panic")
		}
	}()
	tr.End(Span{Track: "x", Label: "y"}, 1)
}

func TestTracerReversedSpanPanics(t *testing.T) {
	tr := NewTracer()
	id := tr.Start("x", "y", 10)
	defer func() {
		if recover() == nil {
			t.Fatal("reversed span did not panic")
		}
	}()
	tr.End(id, 5)
}

func TestSpansSortedByStart(t *testing.T) {
	tr := NewTracer()
	tr.Add(Span{Track: "b", Start: 5, End: 6})
	tr.Add(Span{Track: "a", Start: 1, End: 2})
	tr.Add(Span{Track: "a", Start: 5, End: 7})
	spans := tr.Spans()
	if spans[0].Start != 1 {
		t.Fatalf("first span starts at %v, want 1", spans[0].Start)
	}
	// Tie at start=5 broken by track name.
	if spans[1].Track != "a" || spans[2].Track != "b" {
		t.Fatalf("tie-break order wrong: %+v", spans[1:])
	}
}

func TestMakespan(t *testing.T) {
	tr := NewTracer()
	if tr.Makespan() != 0 {
		t.Fatal("empty tracer makespan != 0")
	}
	tr.Add(Span{Track: "a", Start: 0, End: 10})
	tr.Add(Span{Track: "b", Start: 5, End: 30})
	if tr.Makespan() != 30 {
		t.Fatalf("makespan = %v, want 30", tr.Makespan())
	}
}

func TestTrackBusyMergesOverlaps(t *testing.T) {
	tr := NewTracer()
	tr.Add(Span{Track: "stt", Start: 0, End: 10})
	tr.Add(Span{Track: "stt", Start: 5, End: 15})  // overlap: union [0,15]
	tr.Add(Span{Track: "stt", Start: 20, End: 25}) // disjoint
	tr.Add(Span{Track: "other", Start: 0, End: 100})
	if got := tr.TrackBusy("stt"); got != 20 {
		t.Fatalf("TrackBusy = %v, want 20", got)
	}
	if got := tr.TrackBusy("missing"); got != 0 {
		t.Fatalf("TrackBusy(missing) = %v, want 0", got)
	}
}

func TestTracksFirstSeenOrder(t *testing.T) {
	tr := NewTracer()
	tr.Add(Span{Track: "LLM (Text)", Start: 0, End: 1})
	tr.Add(Span{Track: "Speech-to-Text", Start: 0, End: 1})
	tr.Add(Span{Track: "LLM (Text)", Start: 2, End: 3})
	tracks := tr.Tracks()
	if len(tracks) != 2 || tracks[0] != "LLM (Text)" || tracks[1] != "Speech-to-Text" {
		t.Fatalf("tracks = %v", tracks)
	}
}

func TestGanttRendersAllTracks(t *testing.T) {
	tr := NewTracer()
	tr.Add(Span{Track: "Speech-to-Text", Label: "s0", Start: 0, End: 50})
	tr.Add(Span{Track: "LLM (Text)", Label: "s0", Start: 50, End: 100})
	out := Gantt(tr, 40)
	if !strings.Contains(out, "Speech-to-Text") || !strings.Contains(out, "LLM (Text)") {
		t.Fatalf("gantt missing tracks:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Fatalf("gantt has no bars:\n%s", out)
	}
	if !strings.Contains(out, "100s") {
		t.Fatalf("gantt missing makespan label:\n%s", out)
	}
}

func TestGanttEmpty(t *testing.T) {
	if got := Gantt(NewTracer(), 40); got != "(no spans)\n" {
		t.Fatalf("empty gantt = %q", got)
	}
}

func TestSpansCSV(t *testing.T) {
	tr := NewTracer()
	tr.Add(Span{Track: "a,b", Label: `say "hi"`, Start: 1, End: 2})
	out := SpansCSV(tr)
	if !strings.HasPrefix(out, "track,label,start_s,end_s\n") {
		t.Fatalf("csv header wrong: %q", out)
	}
	if !strings.Contains(out, `"a,b"`) {
		t.Fatalf("comma not escaped: %q", out)
	}
	if !strings.Contains(out, `"say ""hi"""`) {
		t.Fatalf("quotes not escaped: %q", out)
	}
}

func TestSeriesCSV(t *testing.T) {
	a := NewStepSeries(0)
	a.Set(5, 100)
	out := SeriesCSV([]string{"cpu"}, []*StepSeries{a}, 0, 10, 5)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want header + 2 rows:\n%s", len(lines), out)
	}
	if lines[0] != "time_s,cpu" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[2], "5.000,100.0000") {
		t.Fatalf("second row = %q", lines[2])
	}
}

func TestSeriesCSVMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched names/series did not panic")
		}
	}()
	SeriesCSV([]string{"a", "b"}, []*StepSeries{NewStepSeries(0)}, 0, 1, 1)
}

func TestTracerInterleavedStartEnd(t *testing.T) {
	tr := NewTracer()
	a := tr.Start("t", "a", 0)
	b := tr.Start("t", "b", 1)
	c := tr.Start("t", "c", 2)
	if tr.OpenCount() != 3 {
		t.Fatalf("open = %d, want 3", tr.OpenCount())
	}
	tr.End(b, 3)
	d := tr.Start("t", "d", 3)
	tr.End(a, 4)
	if tr.OpenCount() != 2 {
		t.Fatalf("open = %d after two Ends, want 2", tr.OpenCount())
	}
	tr.End(d, 5)
	tr.End(c, 6)
	if tr.OpenCount() != 0 {
		t.Fatalf("open = %d at the end, want 0", tr.OpenCount())
	}
	// Tracks and the input to Spans' sort follow completion order.
	var got []string
	for _, sp := range tr.completed() {
		got = append(got, sp.Label)
	}
	if strings.Join(got, "") != "badc" {
		t.Fatalf("completion order = %v, want b a d c", got)
	}
	want := []Span{{"t", "a", 0, 4}, {"t", "b", 1, 3}, {"t", "c", 2, 6}, {"t", "d", 3, 5}}
	for i, sp := range tr.Spans() {
		if sp != want[i] {
			t.Fatalf("span %d = %+v, want %+v", i, sp, want[i])
		}
	}
}

// A tracer does not keep the spans in flight, so the double End it can still
// catch is the one that leaves fewer than no spans open.
func TestTracerEndTwicePanics(t *testing.T) {
	tr := NewTracer()
	sp := tr.Start("x", "y", 1)
	tr.End(sp, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("second End of one span did not panic")
		}
		if n := len(tr.Spans()); n != 1 || tr.OpenCount() != 0 {
			t.Fatalf("%d spans, %d open after the refused End, want 1 and 0", n, tr.OpenCount())
		}
	}()
	tr.End(sp, 3)
}

func TestTracerEndBeforeAnyStartPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EndNode on a tracer that never started a span did not panic")
		}
	}()
	var tr Tracer
	tr.Init(upperNamer{}, make([]NodeSpan, 8))
	tr.EndNode(0, 0, 1)
}

// upperNamer names node i's span ("T<i%2>", "n<i>").
type upperNamer struct{}

func (upperNamer) SpanName(node int32) (string, string) {
	return "T" + strconv.Itoa(int(node)%2), "n" + strconv.Itoa(int(node))
}

// TestNodeSpansReadLikeNamedOnes feeds one tracer spans by node index and
// another the same spans already named, in the same completion order: every
// reader must give the same answer, and the indexed one must stay inside the
// storage it was given until a span more than that arrives.
func TestNodeSpansReadLikeNamedOnes(t *testing.T) {
	type rec struct {
		node       int32
		start, end float64
	}
	// Completion order, with ties on start (and on start + track) so Spans'
	// unstable sort sees the same input both ways.
	recs := []rec{{3, 0, 2}, {1, 0, 3}, {0, 1, 3}, {2, 1, 4}, {5, 3, 9}, {4, 3, 5}}
	storage := make([]NodeSpan, len(recs))
	var byNode Tracer
	byNode.Init(upperNamer{}, storage)
	named := NewTracer()
	for _, r := range recs {
		byNode.StartNode()
		sp := named.Start("T"+strconv.Itoa(int(r.node)%2), "n"+strconv.Itoa(int(r.node)), r.start)
		if byNode.OpenCount() != 1 || named.OpenCount() != 1 {
			t.Fatalf("open = %d / %d, want 1 / 1", byNode.OpenCount(), named.OpenCount())
		}
		byNode.EndNode(r.node, r.start, r.end)
		named.End(sp, r.end)
	}
	if &byNode.nodes[0] != &storage[0] {
		t.Fatal("a tracer within its size moved off the storage it was given")
	}
	if got, want := SpansCSV(&byNode), SpansCSV(named); got != want {
		t.Fatalf("SpansCSV differs:\n%s\nwant\n%s", got, want)
	}
	if got, want := Gantt(&byNode, 40), Gantt(named, 40); got != want {
		t.Fatalf("Gantt differs:\n%s\nwant\n%s", got, want)
	}
	if got, want := strings.Join(byNode.Tracks(), ","), strings.Join(named.Tracks(), ","); got != want || got != "T1,T0" {
		t.Fatalf("Tracks = %q, named %q, want T1,T0 (first seen in completion order)", got, want)
	}
	if byNode.Makespan() != 9 || byNode.TrackBusy("T0") != named.TrackBusy("T0") || byNode.TrackBusy("T1") != 9 {
		t.Fatalf("Makespan %v, TrackBusy %v / %v", byNode.Makespan(), byNode.TrackBusy("T0"), byNode.TrackBusy("T1"))
	}
	// One span more than the storage holds (a retried task) spills.
	byNode.StartNode()
	byNode.EndNode(0, 9, 10)
	if len(byNode.Spans()) != len(recs)+1 || byNode.Makespan() != 10 {
		t.Fatalf("%d spans, makespan %v after the spill", len(byNode.Spans()), byNode.Makespan())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("reversed node span did not panic")
		}
	}()
	byNode.StartNode()
	byNode.EndNode(1, 5, 4)
}
