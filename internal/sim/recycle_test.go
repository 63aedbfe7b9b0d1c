package sim

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
)

// onWheel runs f on a fresh engine as the subtest "wheel", the name these
// tests have had since a heap arm ran beside it.
func onWheel(t *testing.T, f func(t *testing.T, e *Engine)) {
	t.Run("wheel", func(t *testing.T) { f(t, NewEngine()) })
}

// TestStaleHandleCannotTouchARecycledEvent is the safety half of recycling: a
// handle that outlives its event — cancelled after the event fired, after it
// was already cancelled, or from inside the event's own callback — must
// answer "over" and leave alone whichever event was given the record next.
// Each case checks the record really was reused, or it would prove nothing.
func TestStaleHandleCannotTouchARecycledEvent(t *testing.T) {
	over := func(t *testing.T, h Event) {
		t.Helper()
		if h.Pending() || h.At() != 0 || h.Cancel() {
			t.Fatalf("stale handle: Pending=%v At=%v, or Cancel returned true", h.Pending(), h.At())
		}
	}
	reusedAndFires := func(t *testing.T, e *Engine, stale Event) {
		t.Helper()
		fired := false
		next := *e.After(1, func() { fired = true })
		if next.rec != stale.rec {
			t.Fatal("the next event did not get the old event's record: nothing was recycled")
		}
		over(t, stale)
		if !next.Pending() || next.At() != e.Now().Add(1) || e.Pending() != 1 {
			t.Fatalf("the stale handle reached the new event: Pending=%v At=%v, engine pending %d",
				next.Pending(), next.At(), e.Pending())
		}
		e.Run()
		if !fired {
			t.Fatal("the new event did not fire")
		}
		over(t, next)
		over(t, Event{})
	}

	t.Run("cancel after fire", func(t *testing.T) {
		onWheel(t, func(t *testing.T, e *Engine) {
			h := *e.After(1, func() {})
			e.Run()
			over(t, h)
			reusedAndFires(t, e, h)
		})
	})
	t.Run("cancel after cancel", func(t *testing.T) {
		onWheel(t, func(t *testing.T, e *Engine) {
			h := *e.After(1, func() { t.Error("cancelled event fired") })
			if !h.Cancel() {
				t.Fatal("Cancel of a pending event returned false")
			}
			over(t, h)
			// The wheel keeps a dead record linked until it sweeps past it;
			// stepping the all-dead queue sweeps.
			if e.Step() {
				t.Fatal("a cancelled event fired")
			}
			reusedAndFires(t, e, h)
		})
	})
	t.Run("cancel from the event's own callback", func(t *testing.T) {
		onWheel(t, func(t *testing.T, e *Engine) {
			var h, inside Event
			h = *e.After(1, func() {
				over(t, h)
				// The record is still the running event's: an event
				// scheduled from inside the callback must get another.
				inside = *e.After(1, func() {})
				if inside.rec == h.rec {
					t.Error("a record was reused while its callback was running")
				}
				over(t, h)
			})
			e.Step()
			if !inside.Pending() {
				t.Fatal("the event scheduled from the callback is not pending")
			}
			e.Run()
			reusedAndFires(t, e, inside) // the free list is last in, first out
			over(t, h)
		})
	})
}

// TestEngineSteadyStateAllocatesNothing is the other half: a warm engine
// schedules, fires, cancels and sweeps without allocating, through the
// exported calls exactly as other packages make them — result dropped, or
// dereferenced on the spot — which also holds the compiler to inlining
// Schedule / After / Defer (see the comment on them).
func TestEngineSteadyStateAllocatesNothing(t *testing.T) {
	onWheel(t, func(t *testing.T, e *Engine) {
		fn := func() {}
		var kept Event
		for i := 0; i < 2*eventSlabSize; i++ { // warm: records, heaps
			e.After(Duration(i%7), fn)
		}
		e.Run()
		if got := testing.AllocsPerRun(1000, func() {
			e.Schedule(e.Now().Add(0.5), fn)
			kept = *e.After(1, fn)
			e.Defer(fn)
			e.Run()
		}); got != 0 {
			t.Errorf("schedule + fire allocates %.0f per cycle, want 0", got)
		}
		if got := testing.AllocsPerRun(1000, func() {
			kept = *e.After(3, fn)
			far := *e.After(9000, fn) // the overflow heap
			if !kept.Cancel() || !far.Cancel() || e.Step() {
				t.Fatal("cancel + drain went wrong")
			}
		}); got != 0 {
			t.Errorf("schedule + cancel + drain allocates %.0f per cycle, want 0", got)
		}
		if e.Pending() != 0 {
			t.Fatalf("%d events left pending", e.Pending())
		}
	})
}

// engineOps interprets data as a sequence of engine operations and returns a
// log of everything observable: each firing with its time, every Cancel's
// answer, Now and Pending after each driving call. Handles are kept for ever,
// so most cancels go through one whose event is long over — and, on a
// recycling engine, whose record some later event holds.
func engineOps(e queue, data []byte) []string {
	var log []string
	var handles []handle
	id := 0
	var spawn func(d Duration, chain byte)
	spawn = func(d Duration, chain byte) {
		me := id
		id++
		handles = append(handles, e.After(d, func() {
			log = append(log, fmt.Sprintf("fire %d@%v", me, e.Now()))
			switch chain % 4 {
			case 1: // fire → reschedule
				spawn(d/2, chain/4)
			case 2: // cancel through a handle from inside a callback (often its own)
				k := (me + int(chain/4)) % len(handles)
				log = append(log, fmt.Sprintf("  cancel %d=%v", k, handles[k].Cancel()))
			case 3:
				e.Defer(func() { log = append(log, fmt.Sprintf("fire deferred by %d@%v", me, e.Now())) })
			}
		}))
	}
	arg := func() uint16 {
		if len(data) < 2 {
			return 0
		}
		v := binary.LittleEndian.Uint16(data)
		data = data[2:]
		return v
	}
	// delay spreads 16 bits over same-instant, sub-tick, every wheel level,
	// the overflow heap and times past tick arithmetic.
	delay := func(v uint16) Duration {
		switch x := Duration(v >> 3); v & 7 {
		case 0:
			return 0
		case 1:
			return x / (4 * tickHz)
		case 2, 3:
			return x / 256
		case 4, 5:
			return x
		case 6:
			return 4096 + x*50
		default:
			return 1e16 * (1 + x)
		}
	}
	for len(data) > 0 && len(log) < 4000 {
		op := data[0]
		data = data[1:]
		switch op % 8 {
		case 0, 1:
			spawn(delay(arg()), op/8)
		case 2:
			me := id
			id++
			handles = append(handles, e.Schedule(e.Now().Add(delay(arg())), func() {
				log = append(log, fmt.Sprintf("fire %d@%v", me, e.Now()))
			}))
		case 3:
			me := id
			id++
			handles = append(handles, e.Defer(func() { log = append(log, fmt.Sprintf("fire %d@%v", me, e.Now())) }))
		case 4, 5:
			if len(handles) > 0 {
				k := int(arg()) % len(handles)
				log = append(log, fmt.Sprintf("cancel %d=%v", k, handles[k].Cancel()))
			}
		case 6:
			for n := int(op/8)%4 + 1; n > 0; n-- {
				log = append(log, fmt.Sprintf("step=%v", e.Step()))
			}
		case 7:
			e.RunUntil(e.Now().Add(delay(arg())))
		}
		log = append(log, fmt.Sprintf("now=%v pending=%d", e.Now(), e.Pending()))
	}
	e.Run() // terminates: a reschedule chain passes on chain/4, so it is at most three deep
	return append(log, fmt.Sprintf("end now=%v pending=%d processed=%d", e.Now(), e.Pending(), e.Processed()))
}

// engineOpSeeds spells the fuzz target's seed sequences in engineOps' encoding.
func engineOpSeeds() [][]byte {
	after := func(delay uint16, chain byte) []byte { return []byte{chain << 3, byte(delay), byte(delay >> 8)} }
	cancel := func(k uint16) []byte { return []byte{4, byte(k), byte(k >> 8)} }
	step := func(n byte) []byte { return []byte{6 | (n-1)<<3} }
	runUntil := func(delay uint16) []byte { return []byte{7, byte(delay), byte(delay >> 8)} }
	const (
		now      = 0
		subTick  = 1 | 16<<3  // ~0.001 s
		halfSec  = 2 | 128<<3 // level 1
		oneSec   = 4 | 1<<3
		level2   = 4 | 100<<3 // 100 s
		overflow = 6 | 98<<3  // 8996 s, past the wheel's window
		sentinel = 7 | 3<<3   // past tick arithmetic
	)
	var seeds [][]byte
	// PR 15's three calls — cancel the only event, step the all-dead wheel,
	// schedule near now — at each depth the dead event can sit at.
	for _, far := range []uint16{halfSec, level2, overflow} {
		seeds = append(seeds, slices.Concat(
			after(far, 0), cancel(0), step(1), after(far, 0), after(subTick, 0), after(now, 0)))
	}
	seeds = append(seeds,
		// fire → reschedule → a new event takes the fired one's record →
		// cancel through the stale handle, which must not reach it.
		slices.Concat(after(oneSec, 1), step(1), after(oneSec, 0), cancel(0), step(2)),
		// A peek at a far event, then near ones around it; a sentinel last.
		slices.Concat(after(overflow, 0), runUntil(level2), after(oneSec, 3), []byte{3}, after(sentinel, 0), cancel(1)),
		// Callbacks that cancel through other events' handles, stepped apart.
		slices.Concat(after(oneSec, 2), after(oneSec, 2|1<<2), after(halfSec, 1), step(4), cancel(2), cancel(0)),
	)
	return seeds
}

// FuzzEngineOps runs one decoded operation sequence on the timer wheel with
// recycled records and on the reference engine (oracle_test.go: a slice
// scanned for the least (at, seq), every event a record of its own, never
// reused) and requires the two logs to be identical: fire order, Now,
// Pending, and what every Cancel returned, stale handles included.
func FuzzEngineOps(f *testing.F) {
	for _, seed := range engineOpSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want := engineOps(newRefEngine(), data)
		got := engineOps(newWheelQueue(), data)
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("diverged at line %d:\nwheel + recycling: %v\nreference:         %v", i, tail(got[:min(i+1, len(got))]), tail(want[:i+1]))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("wheel + recycling logged %d lines, the reference %d", len(got), len(want))
		}
	})
}
