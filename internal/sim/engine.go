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
	"container/heap"
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
	// tick is the wheel bucket key, tickOf(at), set once at scheduling
	// (unused by the heap arm).
	tick uint64
	// next links events within one wheel bucket (intrusive, so filing an
	// event allocates nothing) and free records on the free list; nil on the
	// heap arm.
	next     *event
	index    int // heap index (heap arm); <0 once fired or cancelled
	owner    *Engine
	fn       func()
	canceled bool
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
	if ev := h.rec; ev != nil && ev.seq == h.seq && !ev.canceled && ev.index >= 0 {
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
// whatever the callback closes over) immediately. On the timer wheel this
// is O(1): the event is marked dead where it sits, skipped lazily when its
// bucket is reached, and drained eagerly whenever it surfaces at a bucket
// head; the live-event counter drops right away, so Pending never counts
// it. On the heap arm (DisableEventWheel) the event is removed from the
// queue eagerly via its stored heap index. Cancelling an event that
// already fired or was already cancelled — through however old a handle —
// is a no-op. Cancel returns true if the event had been pending.
func (h Event) Cancel() bool {
	ev := h.pending()
	if ev == nil {
		return false
	}
	own := ev.owner
	if own.noWheel {
		heap.Remove(&own.queue, ev.index)
		own.pool.release(ev)
		return true
	}
	// The wheel still links the record: it stays, dead, until the wheel
	// reaches it and releases it.
	ev.canceled = true
	ev.index = -1
	ev.fn = nil
	own.wheel.live--
	own.wheel.cancelsLazy++
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
	// noSlab allocates each event individually and never reuses one — the
	// differential tests' reference configuration, proving that neither slab
	// carving nor recycling changes anything.
	noSlab bool
}

// eventSlabSize is the number of events per allocation block.
const eventSlabSize = 64

// get returns a record for the caller to fill in.
func (p *eventPool) get() *event {
	if p.noSlab {
		return new(event)
	}
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
	*ev = event{}
	if !p.noSlab {
		ev.next = p.free
		p.free = ev
	}
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

	// The event queue has two arms. The default is the hierarchical timer
	// wheel (see wheel.go): O(1) amortized schedule/cancel, pops found by
	// bitmap scan instead of O(log n) heap comparisons. noWheel switches to
	// the reference binary-heap queue, kept alive so the differential and
	// property tests can prove the wheel changes nothing observable.
	noWheel bool
	queue   eventQueue // heap arm
	wheel   wheel      // wheel arm
}

// DisableEventWheel, when set before engines are constructed, routes every
// NewEngine onto the reference binary-heap event queue instead of the
// hierarchical timer wheel. Like core.DisableAllocReuse it exists for the
// differential tests (wheel on vs off must be byte-identical) and as an
// operational escape hatch; it is not a tuning knob.
var DisableEventWheel bool

// DisableEventWheel switches this engine onto the heap queue. It must be
// called before any event is scheduled; the two arms file pending events
// in incompatible structures.
func (e *Engine) DisableEventWheel() {
	if e.seq != 0 {
		panic("sim: DisableEventWheel after events were scheduled")
	}
	e.noWheel = true
}

// DisableEventSlab makes the engine allocate every event individually and
// never reuse a record, instead of carving slabs and recycling. Scheduling
// semantics are unchanged; it exists so the differential test can run a
// no-reuse reference stack.
func (e *Engine) DisableEventSlab() { e.pool.noSlab = true }

// NewEngine returns an engine positioned at time zero with an empty queue.
func NewEngine() *Engine {
	e := &Engine{noWheel: DisableEventWheel}
	e.wheel.pool = &e.pool
	return e
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// WheelEvents returns how many scheduled events were filed into the timer
// wheel's near-future levels (zero on the heap arm).
func (e *Engine) WheelEvents() uint64 { return e.wheel.wheelEvents }

// OverflowEvents returns how many scheduled events were parked in the
// wheel's far-future overflow heap (zero on the heap arm).
func (e *Engine) OverflowEvents() uint64 { return e.wheel.overflowEvents }

// CancelsLazy returns how many cancels were handled as O(1) dead marks to
// be skipped lazily (zero on the heap arm, which removes eagerly).
func (e *Engine) CancelsLazy() uint64 { return e.wheel.cancelsLazy }

// SetEventLimit makes Run panic after n events; 0 disables the limit.
// It exists to catch accidental infinite event loops in tests.
func (e *Engine) SetEventLimit(n uint64) { e.maxEvents = n }

// newEvent takes a record from the pool and numbers it.
func (e *Engine) newEvent(at Time, fn func()) *event {
	ev := e.pool.get()
	e.seq++
	*ev = event{at: at, seq: e.seq, owner: e, fn: fn}
	return ev
}

// enqueue files a freshly created event into whichever queue arm is active
// and maintains the pending high-water mark.
func (e *Engine) enqueue(ev *event) {
	if e.noWheel {
		heap.Push(&e.queue, ev)
		if n := len(e.queue); n > e.peakPending {
			e.peakPending = n
		}
		return
	}
	ev.tick = tickOf(ev.at)
	e.wheel.schedule(ev)
	if e.wheel.live > e.peakPending {
		e.peakPending = e.wheel.live
	}
}

// schedule is Schedule, returning the handle by value.
func (e *Engine) schedule(at Time, fn func()) Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("sim: schedule with nil callback")
	}
	ev := e.newEvent(at, fn)
	e.enqueue(ev)
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

// BatchItem is one (time, callback) entry for ScheduleBatch.
type BatchItem struct {
	At Time
	Fn func()
}

// ScheduleBatch schedules every item, taking consecutive sequence numbers
// exactly as if Schedule had been called per item, so firing order is
// identical to sequential Schedule calls. On the wheel arm each insert is
// already O(1), so the batch is a plain loop; the heap arm appends all
// items and restores the heap invariant with a single O(queue) fix-up pass
// instead of O(batch × log queue) sift-ups. Items fire in slice order at
// equal times. Past times and nil callbacks panic, as in Schedule.
func (e *Engine) ScheduleBatch(items []BatchItem) {
	if len(items) == 0 {
		return
	}
	for _, it := range items {
		if it.At < e.now {
			panic(fmt.Sprintf("sim: schedule at %v before now %v", it.At, e.now))
		}
		if it.Fn == nil {
			panic("sim: schedule with nil callback")
		}
		ev := e.newEvent(it.At, it.Fn)
		if e.noWheel {
			ev.index = len(e.queue)
			e.queue = append(e.queue, ev)
			continue
		}
		ev.tick = tickOf(ev.at)
		e.wheel.schedule(ev)
	}
	if e.noWheel {
		heap.Init(&e.queue)
		if n := len(e.queue); n > e.peakPending {
			e.peakPending = n
		}
		return
	}
	if e.wheel.live > e.peakPending {
		e.peakPending = e.wheel.live
	}
}

// Reserve grows the pending-queue capacity to hold at least n events without
// reallocation — a rebuilt engine pre-sizes from its predecessor's
// PeakPending so warm-up stops paying growth copies. On the wheel arm this
// pre-sizes the active-bucket and overflow heaps; wheel buckets grow (and
// keep) their backing arrays on demand.
func (e *Engine) Reserve(n int) {
	if e.noWheel {
		if cap(e.queue) >= n {
			return
		}
		q := make(eventQueue, len(e.queue), n)
		copy(q, e.queue)
		e.queue = q
		return
	}
	e.wheel.reserve(n)
}

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

// Pending reports the number of undelivered live events. The wheel arm
// answers from its live-event counter — cancelled events stop counting the
// moment Cancel marks them dead, without any queue scan; the heap arm
// removes cancelled events eagerly, so its queue length is exact too.
func (e *Engine) Pending() int {
	if e.noWheel {
		return e.queue.Len()
	}
	return e.wheel.live
}

// step executes the earliest pending event. It returns false when the queue
// holds no live events.
func (e *Engine) step() bool {
	var ev *event
	if e.noWheel {
		// The heap arm's Cancel removes events eagerly, so every queued
		// event is live.
		if e.queue.Len() > 0 {
			ev = heap.Pop(&e.queue).(*event)
		}
	} else {
		ev = e.wheel.pop()
	}
	if ev == nil {
		return false
	}
	ev.index = -1
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

// nextAt reports the earliest live event's firing time without executing
// anything.
func (e *Engine) nextAt() (Time, bool) {
	if e.noWheel {
		if e.queue.Len() == 0 {
			return 0, false
		}
		return e.queue[0].at, true
	}
	return e.wheel.nextAt()
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
		at, ok := e.nextAt()
		if !ok || at > deadline {
			break
		}
		e.step()
	}
	e.now = deadline
}

// eventQueue is a min-heap ordered by (at, seq): the engine's reference
// queue arm, selected by DisableEventWheel.
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	ev := x.(*event)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}
