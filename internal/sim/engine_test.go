package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("new engine at %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("new engine has %d pending events", e.Pending())
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("final time %v, want 3", e.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(5, func() { order = append(order, "a") })
	e.Schedule(5, func() { order = append(order, "b") })
	e.Schedule(5, func() { order = append(order, "c") })
	e.Run()
	if got := order[0] + order[1] + order[2]; got != "abc" {
		t.Fatalf("tie order = %q, want abc", got)
	}
}

func TestAfterAccumulates(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.After(2, func() {
		times = append(times, e.Now())
		e.After(3, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 2 || times[0] != 2 || times[1] != 5 {
		t.Fatalf("times = %v, want [2 5]", times)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(5, func() {})
	})
	e.Run()
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(1, func() { fired = true })
	if !ev.Cancel() {
		t.Fatal("first Cancel returned false")
	}
	if ev.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelFromEarlierEvent(t *testing.T) {
	e := NewEngine()
	fired := false
	later := e.Schedule(10, func() { fired = true })
	e.Schedule(1, func() { later.Cancel() })
	e.Run()
	if fired {
		t.Fatal("event fired despite cancellation at t=1")
	}
	if e.Now() != 1 {
		t.Fatalf("clock advanced to %v; cancelled event should not move time", e.Now())
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("fired %v, want events at 1..3", fired)
	}
	if e.Now() != 3 {
		t.Fatalf("now = %v, want 3", e.Now())
	}
	e.RunUntil(10)
	if len(fired) != 5 {
		t.Fatalf("fired %v after second RunUntil", fired)
	}
	if e.Now() != 10 {
		t.Fatalf("now = %v, want 10 (deadline with no events)", e.Now())
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(3, func() { fired = true })
	e.RunUntil(3)
	if !fired {
		t.Fatal("event exactly at deadline did not fire")
	}
}

func TestDeferRunsAtSameInstantAfterQueued(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(1, func() {
		e.Defer(func() { order = append(order, "deferred") })
		order = append(order, "first")
	})
	e.Schedule(1, func() { order = append(order, "second") })
	e.Run()
	want := []string{"first", "second", "deferred"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 1 {
		t.Fatalf("defer moved the clock to %v", e.Now())
	}
}

func TestEventLimit(t *testing.T) {
	e := NewEngine()
	e.SetEventLimit(10)
	var loop func()
	loop = func() { e.After(1, loop) }
	e.After(1, loop)
	defer func() {
		if recover() == nil {
			t.Fatal("runaway loop did not trip the event limit")
		}
	}()
	e.Run()
}

// Property: for any set of scheduled times, events fire in nondecreasing time
// order and the engine finishes at the maximum time.
func TestPropertyEventsFireInOrder(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		e := NewEngine()
		var fired []Time
		for _, r := range raw {
			at := Time(r)
			e.Schedule(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		var max Time
		for _, r := range raw {
			if Time(r) > max {
				max = Time(r)
			}
		}
		return e.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving random cancellations never breaks ordering of the
// surviving events, and cancelled events never fire.
func TestPropertyCancelSafety(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		e := NewEngine()
		n := 1 + rng.Intn(40)
		events := make([]Event, n)
		firedIdx := map[int]bool{}
		for i := 0; i < n; i++ {
			i := i
			events[i] = *e.Schedule(Time(rng.Intn(100)), func() { firedIdx[i] = true })
		}
		cancelled := map[int]bool{}
		for i := 0; i < n/2; i++ {
			k := rng.Intn(n)
			if events[k].Cancel() {
				cancelled[k] = true
			}
		}
		e.Run()
		for k := range cancelled {
			if firedIdx[k] {
				t.Fatalf("trial %d: cancelled event %d fired", trial, k)
			}
		}
		if len(firedIdx)+len(cancelled) != n {
			t.Fatalf("trial %d: fired %d + cancelled %d != scheduled %d",
				trial, len(firedIdx), len(cancelled), n)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		rng := rand.New(rand.NewSource(42))
		var fired []Time
		for i := 0; i < 200; i++ {
			e.Schedule(Time(rng.Float64()*1000), func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		return fired
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at event %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestCancelRemovesFromQueue pins the eager-removal contract: a cancelled
// event leaves the heap (and Pending) immediately instead of lingering until
// its firing time is popped.
func TestCancelRemovesFromQueue(t *testing.T) {
	e := NewEngine()
	keep := 0
	var evs []Event
	for i := 0; i < 100; i++ {
		evs = append(evs, *e.Schedule(Time(i), func() { keep++ }))
	}
	if e.Pending() != 100 {
		t.Fatalf("Pending = %d, want 100", e.Pending())
	}
	// Cancel every other event, including the current heap root.
	cancelled := 0
	for i := 0; i < 100; i += 2 {
		if !evs[i].Cancel() {
			t.Fatalf("Cancel of pending event %d returned false", i)
		}
		cancelled++
		if got, want := e.Pending(), 100-cancelled; got != want {
			t.Fatalf("after %d cancels Pending = %d, want %d", cancelled, got, want)
		}
	}
	e.Run()
	if keep != 50 {
		t.Fatalf("%d events fired, want 50", keep)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after Run, want 0", e.Pending())
	}
}

// TestCancelMidHeapPreservesOrder cancels from the middle of the heap and
// verifies remaining events still fire in (time, seq) order.
func TestCancelMidHeapPreservesOrder(t *testing.T) {
	e := NewEngine()
	var fired []int
	var evs []Event
	for i := 0; i < 50; i++ {
		i := i
		evs = append(evs, *e.Schedule(Time(50-i), func() { fired = append(fired, 50-i) }))
	}
	for _, i := range []int{3, 17, 29, 41, 49} {
		evs[i].Cancel()
	}
	e.Run()
	if len(fired) != 45 {
		t.Fatalf("%d events fired, want 45", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("events fired out of order: %v", fired)
		}
	}
}
