package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestTickOfMonotone(t *testing.T) {
	times := []Time{0, 1e-9, 1.0 / tickHz, 2.0 / tickHz, 0.5, 1, 1.0000001,
		4096, 4097, 1 << 24, 1e12, Time(maxTickFloat / tickHz), Forever}
	for i := 1; i < len(times); i++ {
		lo, hi := tickOf(times[i-1]), tickOf(times[i])
		if lo > hi {
			t.Fatalf("tickOf not monotone: tickOf(%v)=%d > tickOf(%v)=%d",
				times[i-1], lo, times[i], hi)
		}
	}
	if tickOf(Forever) != sentinelTick {
		t.Fatalf("tickOf(Forever) = %d, want sentinel", tickOf(Forever))
	}
	if tickOf(0.9/tickHz) != 0 || tickOf(1.1/tickHz) != 1 {
		t.Fatalf("sub-tick quantization wrong: %d, %d",
			tickOf(0.9/tickHz), tickOf(1.1/tickHz))
	}
}

// wheelHarness drives one queue through a scripted random workload and
// records the exact firing sequence. Two harnesses built from the same
// seed make identical decisions as long as their queues fire events in
// the same order — any ordering divergence contaminates the RNG stream
// and shows up as a log mismatch.
type wheelHarness struct {
	e       queue
	rng     *rand.Rand
	log     []string
	events  []handle
	created int
	budget  int
}

func newWheelHarness(e queue, seed int64, budget int) *wheelHarness {
	return &wheelHarness{e: e, rng: rand.New(rand.NewSource(seed)), budget: budget}
}

// spawn schedules one event drawn from the shared distribution: same-tick
// bursts (Defer and sub-tick offsets), near-future, cross-level
// far-future, overflow-range, and occasionally beyond tick arithmetic.
func (h *wheelHarness) spawn() {
	id := h.created
	h.created++
	var delta Duration
	switch h.rng.Intn(10) {
	case 0: // Defer storm: exact current instant
		delta = 0
	case 1, 2: // same or adjacent tick, distinct sub-tick times
		delta = Duration(h.rng.Float64() * 2 / tickHz)
	case 3, 4, 5: // near future: level 0/1 territory
		delta = Duration(h.rng.Float64() * 10)
	case 6, 7: // level 2 territory
		delta = Duration(10 + h.rng.Float64()*3000)
	case 8: // beyond the wheel window: overflow heap
		delta = Duration(5000 + h.rng.Float64()*1e6)
	case 9: // beyond tick arithmetic entirely
		delta = Duration(1e16 * (1 + h.rng.Float64()))
	}
	h.events = append(h.events, h.e.After(delta, func() { h.fire(id) }))
}

func (h *wheelHarness) fire(id int) {
	h.log = append(h.log, fmt.Sprintf("%d@%.9g", id, h.e.Now().Seconds()))
	for h.budget > 0 && h.rng.Float64() < 0.55 {
		h.budget--
		if h.rng.Intn(4) == 0 && len(h.events) > 0 {
			// Cancel a random earlier event (often already fired: a no-op,
			// which both queues must answer alike).
			h.events[h.rng.Intn(len(h.events))].Cancel()
			continue
		}
		h.spawn()
	}
}

// TestWheelHeapPropertyDifferential is the ordering contract of the timer
// wheel: for randomized schedule/cancel/re-schedule traces — including
// adversarial same-tick Defer storms and far-future events crossing wheel
// levels into the overflow heap — the wheel and the reference engine
// (oracle_test.go) must produce identical (time, seq) pop sequences,
// identical Pending counts, and identical final clocks, whether driven by
// Run or by RunUntil slices.
func TestWheelHeapPropertyDifferential(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runArm := func(e queue) *wheelHarness {
				h := newWheelHarness(e, seed, 400)
				// Deterministic seed workload, partly at absolute times.
				for i := 0; i < 40; i++ {
					if i%3 == 0 {
						id := h.created
						h.created++
						at := Time(h.rng.Float64() * 20)
						h.events = append(h.events, e.Schedule(at, func() { h.fire(id) }))
						continue
					}
					h.spawn()
				}
				// Drive through RunUntil slices first (peek path), then
				// drain; cancel a few pending events between slices.
				for _, deadline := range []Time{0.001, 1, 2.5, 100, 5000} {
					e.RunUntil(deadline)
					h.log = append(h.log, fmt.Sprintf("pending=%d@%v", e.Pending(), e.Now()))
					if deadline == 2.5 {
						// Cancel everything, step the all-dead queue (which
						// must neither fire nor move the clock or the wheel's
						// windows), then reschedule around the unchanged now.
						for _, ev := range h.events {
							ev.Cancel()
						}
						h.log = append(h.log, fmt.Sprintf("drained step=%v pending=%d@%v",
							e.Step(), e.Pending(), e.Now()))
						for i := 0; i < 40; i++ {
							h.spawn()
						}
					}
					for i := 0; i < 3 && len(h.events) > 0; i++ {
						h.events[h.rng.Intn(len(h.events))].Cancel()
					}
				}
				e.Run()
				h.log = append(h.log, fmt.Sprintf("end@%.9g processed=%d pending=%d",
					e.Now().Seconds(), e.Processed(), e.Pending()))
				return h
			}

			ref := runArm(newRefEngine())
			wheel := runArm(newWheelQueue())

			if len(ref.log) != len(wheel.log) {
				t.Fatalf("log lengths diverged: reference %d, wheel %d\nreference tail: %v\nwheel tail: %v",
					len(ref.log), len(wheel.log), tail(ref.log), tail(wheel.log))
			}
			for i := range ref.log {
				if ref.log[i] != wheel.log[i] {
					t.Fatalf("pop sequence diverged at %d: reference %q, wheel %q",
						i, ref.log[i], wheel.log[i])
				}
			}
		})
	}
}

func tail(s []string) []string {
	if len(s) <= 5 {
		return s
	}
	return s[len(s)-5:]
}

// TestWheelDeferStormSingleTick pins the adversarial case the active
// bucket exists for: a cascade of Defers and sub-tick schedules landing
// at one instant must fire strictly in scheduling order, on the wheel as
// on the reference.
func TestWheelDeferStormSingleTick(t *testing.T) {
	for _, mk := range []func() queue{newWheelQueue, newRefEngine} {
		e := mk()
		var order []int
		n := 0
		var storm func()
		storm = func() {
			id := n
			n++
			order = append(order, id)
			if n < 500 {
				e.Defer(storm)
			}
		}
		e.Schedule(1, storm)
		e.Run()
		if len(order) != 500 {
			t.Fatalf("%T: fired %d, want 500", e, len(order))
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("%T: defer storm fired out of order at %d: %v", e, i, order[:i+1])
			}
		}
		if e.Now() != 1 {
			t.Fatalf("%T: defer storm moved the clock to %v", e, e.Now())
		}
	}
}

// TestWheelCrossLevelCascade schedules events across every wheel level
// and the overflow heap, then checks global firing order and that the
// far-future events really took the overflow route.
func TestWheelCrossLevelCascade(t *testing.T) {
	e := NewEngine()
	deltas := []Duration{
		1e-4,    // level 0
		0.5,     // level 1
		30,      // level 2
		3000,    // level 2, near window edge
		5000,    // overflow: beyond the 4096 s window
		2000000, // deep overflow: several window jumps
	}
	var fired []Duration
	for _, d := range deltas {
		e.After(d, func() { fired = append(fired, d) })
	}
	if e.OverflowEvents() != 2 {
		t.Fatalf("overflow events = %d, want 2", e.OverflowEvents())
	}
	if e.WheelEvents() != 4 {
		t.Fatalf("wheel events = %d, want 4", e.WheelEvents())
	}
	e.Run()
	for i := range deltas {
		if fired[i] != deltas[i] {
			t.Fatalf("cross-level order: fired %v, want %v", fired, deltas)
		}
	}
	if e.Now() != Time(2000000) {
		t.Fatalf("final clock %v", e.Now())
	}
}

// TestWheelLazyCancelCounters pins the O(1)-cancel observables: Pending
// drops immediately, CancelsLazy counts the dead marks, and an all-dead
// bucket is drained at the head without firing anything.
func TestWheelLazyCancelCounters(t *testing.T) {
	e := NewEngine()
	var evs []Event
	for i := 0; i < 64; i++ {
		evs = append(evs, *e.Schedule(Time(1+i), func() { t.Error("cancelled event fired") }))
	}
	for i, ev := range evs {
		if !ev.Cancel() {
			t.Fatalf("Cancel %d returned false", i)
		}
		if got, want := e.Pending(), 63-i; got != want {
			t.Fatalf("Pending after %d cancels = %d, want %d", i+1, got, want)
		}
	}
	if e.CancelsLazy() != 64 {
		t.Fatalf("CancelsLazy = %d, want 64", e.CancelsLazy())
	}
	survivor := false
	e.Schedule(100, func() { survivor = true })
	e.Run()
	if !survivor {
		t.Fatal("live event after dead buckets did not fire")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending after Run = %d", e.Pending())
	}
}

// TestWheelRunUntilPeekDoesNotReanchor pins the subtle invariant behind
// RunUntil: peeking at a far-future event must not move the wheel's
// anchors, so scheduling near-past-the-deadline events afterwards still
// files them correctly ahead of the far event.
func TestWheelRunUntilPeekDoesNotReanchor(t *testing.T) {
	e := NewEngine()
	var fired []string
	e.After(9000, func() { fired = append(fired, "far") }) // overflow range
	e.RunUntil(10)                                         // peeks at the far event, fires nothing
	if len(fired) != 0 {
		t.Fatal("far event fired early")
	}
	e.After(5, func() { fired = append(fired, "near") })
	e.Defer(func() { fired = append(fired, "now") })
	e.Run()
	want := []string{"now", "near", "far"}
	if fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
}

// TestWheelCancelOnlyDrainKeepsAnchors is the regression for the shard-loop
// panic: stepping a wheel that holds only cancelled events used to cascade
// through the dead buckets, carrying the anchors past a clock that never
// advanced, and the next insert near now indexed below its level's window.
func TestWheelCancelOnlyDrainKeepsAnchors(t *testing.T) {
	for _, far := range []Duration{0.5, 100, 9000} { // level 1, level 2, overflow
		e := NewEngine()
		e.After(far, func() { t.Error("cancelled event fired") }).Cancel()
		if e.Step() {
			t.Fatalf("far=%v: Step fired something in an all-dead queue", far)
		}
		var fired []Duration
		for _, d := range []Duration{far, 0.001, 0} {
			e.After(d, func() { fired = append(fired, d) })
		}
		e.Run()
		if want := fmt.Sprint([]Duration{0, 0.001, far}); fmt.Sprint(fired) != want {
			t.Fatalf("far=%v: fired %v, want %v", far, fired, want)
		}
		if e.Now() != Time(far) {
			t.Fatalf("far=%v: final clock %v", far, e.Now())
		}
	}
}

// TestWheelSentinelTimes exercises events beyond tick arithmetic (near
// Forever): they must fire last, in (time, seq) order, on the wheel as on
// the reference.
func TestWheelSentinelTimes(t *testing.T) {
	for _, mk := range []func() queue{newWheelQueue, newRefEngine} {
		e := mk()
		var fired []string
		e.Schedule(Time(3e15), func() {
			fired = append(fired, "a")
			// Once the clock is beyond tick range, everything is sentinel:
			// pure heap order must still hold.
			e.After(2e15, func() { fired = append(fired, "d") })
			e.After(1e15, func() { fired = append(fired, "c") })
		})
		e.Schedule(1, func() { fired = append(fired, "near") })
		e.Schedule(Time(4e15), func() { fired = append(fired, "b") })
		e.Run()
		want := "[near a b c d]"
		if fmt.Sprint(fired) != want {
			t.Fatalf("%T: sentinel order %v, want %v", e, fired, want)
		}
	}
}

// TestWheelPendingDrainInteraction mirrors the Loop drain contract: a
// queue holding only dead events must report Pending()==0 (so Close can
// drain) while still releasing the dead buckets on the next step.
func TestWheelPendingDrainInteraction(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(50, func() {})
	ev.Cancel()
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d with only a dead event queued", e.Pending())
	}
	if e.Step() {
		t.Fatal("Step fired something in an all-dead queue")
	}
	if e.Now() != 0 {
		t.Fatalf("draining dead events moved the clock to %v", e.Now())
	}
}
