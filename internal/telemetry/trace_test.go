package telemetry

import (
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
			t.Fatal("End of unknown span did not panic")
		}
	}()
	tr.End(99, 1)
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
	tr := NewTracerSized(4, 2)
	a := tr.Start("t", "a", 0)
	b := tr.Start("t", "b", 1)
	c := tr.Start("t", "c", 2) // past the sized open capacity: grows
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
	for _, sp := range tr.spans {
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

func TestTracerEndTwicePanics(t *testing.T) {
	tr := NewTracer()
	id := tr.Start("x", "y", 1)
	other := tr.Start("x", "z", 1)
	tr.End(id, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("second End of one span did not panic")
		}
		if tr.OpenCount() != 1 {
			t.Fatalf("open = %d after the refused End, want 1", tr.OpenCount())
		}
		tr.End(other, 2)
	}()
	tr.End(id, 3)
}

func TestTracerEndBeforeAnyStartPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("End on a tracer that never started a span did not panic")
		}
	}()
	NewTracerSized(8, 8).End(0, 1)
}
