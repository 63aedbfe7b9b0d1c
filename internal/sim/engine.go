// Package sim provides a deterministic discrete-event simulation engine.
//
// Every timed behaviour in the repository — agent execution, LLM token
// generation, cluster scaling, utilization sampling — is driven by a single
// sim.Engine. The engine is strictly single-threaded: events execute in
// (time, sequence) order on the caller's goroutine, which makes every run
// bit-for-bit reproducible. Simulated time is a float64 number of seconds
// with no relation to the wall clock.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in simulated time, in seconds since the start of the run.
type Time float64

// Duration is a span of simulated time in seconds.
type Duration float64

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the time as a float64 second count.
func (t Time) Seconds() float64 { return float64(t) }

// Seconds returns the duration as a float64 second count.
func (d Duration) Seconds() float64 { return float64(d) }

// Forever is a sentinel for "no deadline".
const Forever = Time(math.MaxFloat64)

// event is the engine's record of one scheduled callback. Records belong to
// the engine: they are carved from slabs, filed in the queue through their own
// links, and go back on the engine's free list (see eventPool.release) the
// moment the callback has returned or the queue discards a cancelled one.
// Callers never see a record, only an Event handle on it.
type event struct {
	at Time
	// seq is the scheduling sequence number — the tie-break of the firing
	// order and, because the engine never issues one twice, the generation a
	// handle is checked against. Zero while the record is free.
	seq uint64
	// tick is the wheel bucket key, tickOf(at), set once at scheduling.
	tick uint64
	// next links events within one wheel bucket (intrusive, so filing an
	// event allocates nothing) and free records on the free list.
	next     *event
	owner    *Engine
	fn       func()
	canceled bool
	// fired is set as the callback starts: the record is not free yet, but
	// its event is over.
	fired bool
}

// Event is a handle on a scheduled callback: the engine's record and the
// sequence number it was scheduled under, 16 bytes, kept and compared by
// value (the zero Event is a handle on nothing). The engine reuses a record
// as soon as its event has fired or its cancellation has been swept up, so
// every method checks the record still carries the handle's number: a stale
// handle answers as for an event that is over and can never reach whichever
// event got the record next.
type Event struct {
	rec *event
	seq uint64
}

// pending returns the record while the handle's event is still queued to
// fire, nil otherwise.
func (h Event) pending() *event {
	if ev := h.rec; ev != nil && ev.seq == h.seq && !ev.canceled && !ev.fired {
		return ev
	}
	return nil
}

// Pending reports whether the event is still queued to fire: false for the
// zero handle and once the event has fired (from the moment its callback
// starts) or been cancelled.
func (h Event) Pending() bool { return h.pending() != nil }

// At returns the simulated time at which a pending event fires, and zero for
// an event that is over.
func (h Event) At() Time {
	if ev := h.pending(); ev != nil {
		return ev.at
	}
	return 0
}

// Cancel prevents the event from firing and releases its callback (and
// whatever the callback closes over) immediately. It is O(1): the event is
// marked dead where it sits in the timer wheel, skipped lazily when its
// bucket is reached, and drained eagerly whenever it surfaces at a bucket
// head; the live-event counter drops right away, so Pending never counts
// it. Cancelling an event that already fired or was already cancelled —
// through however old a handle — is a no-op. Cancel returns true if the
// event had been pending.
func (h Event) Cancel() bool {
	ev := h.pending()
	if ev == nil {
		return false
	}
	// The wheel still links the record: it stays, dead, until the wheel
	// reaches it and releases it.
	ev.canceled = true
	ev.fn = nil
	w := &ev.owner.wheel
	w.live--
	w.cancelsLazy++
	return true
}

// eventPool is where an engine's event records come from and go back to: a
// free list threaded through the records themselves, refilled a slab at a
// time, so a warm engine schedules, fires and cancels without allocating.
// release is the one place a record's life ends.
type eventPool struct {
	free *event
	// slab is the current allocation block: fresh records are carved out of
	// pre-sized slabs, one heap allocation per eventSlabSize of them.
	slab    []event
	slabOff int
}

// eventSlabSize is the number of events per allocation block.
const eventSlabSize = 64

// get returns a record for the caller to fill in.
func (p *eventPool) get() *event {
	if ev := p.free; ev != nil {
		p.free = ev.next
		return ev
	}
	if p.slabOff == len(p.slab) {
		p.slab = make([]event, eventSlabSize)
		p.slabOff = 0
	}
	ev := &p.slab[p.slabOff]
	p.slabOff++
	return ev
}

// release ends a record's life: its callback has returned, or it was
// cancelled and the queue has just dropped its last link to it. Zeroing the
// record makes every handle on it stale (no event has sequence number zero)
// and drops the callback; then it is free for the next event.
func (p *eventPool) release(ev *event) {
	*ev = event{next: p.free}
	p.free = ev
}

// Engine is the discrete-event simulator core. The zero value is not usable;
// call NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	running bool
	// processed counts events executed since construction; useful for
	// runaway detection in tests.
	processed uint64
	// maxEvents aborts Run after this many events when non-zero.
	maxEvents uint64
	// pool holds the event records: free ones, and the slab fresh ones are
	// carved from.
	pool eventPool
	// peakPending records the high-water mark of the pending queue, the
	// sizing hint a rebuilt engine's Reserve call uses.
	peakPending int
	// wheel is the event queue, a hierarchical timer wheel (see wheel.go):
	// O(1) amortized schedule/cancel, pops found by bitmap scan.
	wheel wheel
}

// NewEngine returns an engine positioned at time zero with an empty queue.
func NewEngine() *Engine {
	e := &Engine{}
	e.wheel.pool = &e.pool
	return e
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// WheelEvents returns how many scheduled events were filed into the timer
// wheel's near-future levels.
func (e *Engine) WheelEvents() uint64 { return e.wheel.wheelEvents }

// OverflowEvents returns how many scheduled events were parked in the
// wheel's far-future overflow heap.
func (e *Engine) OverflowEvents() uint64 { return e.wheel.overflowEvents }

// CancelsLazy returns how many cancels were handled as O(1) dead marks to
// be skipped lazily.
func (e *Engine) CancelsLazy() uint64 { return e.wheel.cancelsLazy }

// SetEventLimit makes Run panic after n events; 0 disables the limit.
// It exists to catch accidental infinite event loops in tests.
func (e *Engine) SetEventLimit(n uint64) { e.maxEvents = n }

// schedule is Schedule, returning the handle by value.
func (e *Engine) schedule(at Time, fn func()) Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("sim: schedule with nil callback")
	}
	ev := e.pool.get()
	e.seq++
	*ev = event{at: at, seq: e.seq, tick: tickOf(at), owner: e, fn: fn}
	e.wheel.schedule(ev)
	if e.wheel.live > e.peakPending {
		e.peakPending = e.wheel.live
	}
	return Event{rec: ev, seq: ev.seq}
}

// after is After, returning the handle by value.
func (e *Engine) after(d Duration, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.schedule(e.now.Add(d), fn)
}

// Schedule, After and Defer return the new event's handle behind a pointer
// because code this repository may not edit (bench/ledger) declares
// *sim.Event variables; everything else keeps handles by value. Each of the
// three is a wrapper small enough to inline, so the handle escapes to the heap
// only where a caller really stores the pointer: one that drops the result, or
// dereferences it on the spot (h = *e.After(d, fn)), allocates nothing —
// TestEngineSteadyStateAllocatesNothing holds the compiler to that.

// Schedule arranges for fn to run at absolute time at. Scheduling in the past
// panics: it would silently reorder causality. Ties at the same instant fire
// in scheduling order.
func (e *Engine) Schedule(at Time, fn func()) *Event {
	ev := e.schedule(at, fn)
	return &ev
}

// Reserve grows the pending-queue capacity to hold at least n events without
// reallocation — a rebuilt engine pre-sizes from its predecessor's
// PeakPending so warm-up stops paying growth copies. It pre-sizes the
// wheel's active-bucket and overflow heaps; wheel buckets are linked through
// the event records and need no storage of their own.
func (e *Engine) Reserve(n int) { e.wheel.reserve(n) }

// PeakPending returns the high-water mark of the pending event queue.
func (e *Engine) PeakPending() int { return e.peakPending }

// After arranges for fn to run d seconds from now. Negative durations panic.
func (e *Engine) After(d Duration, fn func()) *Event {
	ev := e.after(d, fn)
	return &ev
}

// Defer arranges for fn to run at the current instant, after all callbacks
// already queued for this instant. It is the simulation analogue of
// "process this on the next tick".
func (e *Engine) Defer(fn func()) *Event {
	ev := e.schedule(e.now, fn)
	return &ev
}

// Pending reports the number of undelivered live events, answered from the
// wheel's live-event counter: cancelled events stop counting the moment
// Cancel marks them dead, without any queue scan.
func (e *Engine) Pending() int { return e.wheel.live }

// step executes the earliest pending event. It returns false when the queue
// holds no live events.
func (e *Engine) step() bool {
	ev := e.wheel.pop()
	if ev == nil {
		return false
	}
	ev.fired = true
	if ev.at < e.now {
		panic("sim: event queue went backwards")
	}
	e.now = ev.at
	e.processed++
	if e.maxEvents != 0 && e.processed > e.maxEvents {
		panic(fmt.Sprintf("sim: event limit %d exceeded at t=%v", e.maxEvents, e.now))
	}
	// The record stays out of the pool while its callback runs (a handle on
	// it, used from inside the callback, must find its own event, over, and
	// not a new one), and goes back the moment the callback returns.
	ev.fn()
	e.pool.release(ev)
	return true
}

// Step executes the earliest pending event and reports whether one fired.
// It is the unit of the service-drivable stepping mode (see Loop): a daemon
// goroutine can interleave bounded batches of Step calls with externally
// injected work instead of committing to a full Run.
func (e *Engine) Step() bool {
	if e.running {
		panic("sim: Step called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	return e.step()
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for e.step() {
	}
}

// RunUntil executes events with firing time ≤ deadline, then advances the
// clock to exactly deadline (even if no event fired there). Events scheduled
// beyond the deadline remain queued.
func (e *Engine) RunUntil(deadline Time) {
	if deadline < e.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) before now %v", deadline, e.now))
	}
	if e.running {
		panic("sim: RunUntil called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for {
		at, ok := e.wheel.nextAt()
		if !ok || at > deadline {
			break
		}
		e.step()
	}
	e.now = deadline
}
