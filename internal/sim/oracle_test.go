package sim

// refEngine is the reference the timer wheel is tested against. It shares no
// code with Engine: every pending event sits in a plain slice, the next one to
// fire is found by a linear scan for the least (at, seq), and every event gets
// a fresh record that is never reused, so a handle can never meet a later
// event. Cancel removes the event from the slice on the spot.
type refEngine struct {
	now       Time
	seq       uint64
	processed uint64
	pending   []*refEvent
}

// refEvent is both the reference's record and its handle.
type refEvent struct {
	e    *refEngine
	at   Time
	seq  uint64
	fn   func()
	over bool // fired or cancelled
}

func newRefEngine() queue { return &refEngine{} }

func (e *refEngine) Now() Time         { return e.now }
func (e *refEngine) Pending() int      { return len(e.pending) }
func (e *refEngine) Processed() uint64 { return e.processed }

func (e *refEngine) Schedule(at Time, fn func()) handle {
	e.seq++
	ev := &refEvent{e: e, at: at, seq: e.seq, fn: fn}
	e.pending = append(e.pending, ev)
	return ev
}

func (e *refEngine) After(d Duration, fn func()) handle { return e.Schedule(e.now.Add(d), fn) }
func (e *refEngine) Defer(fn func()) handle             { return e.Schedule(e.now, fn) }

// next returns the index of the earliest pending event, or -1.
func (e *refEngine) next() int {
	best := -1
	for i, ev := range e.pending {
		if best < 0 || ev.at < e.pending[best].at || ev.at == e.pending[best].at && ev.seq < e.pending[best].seq {
			best = i
		}
	}
	return best
}

// remove drops pending[i], keeping the others in scheduling order.
func (e *refEngine) remove(i int) {
	e.pending = append(e.pending[:i], e.pending[i+1:]...)
}

func (e *refEngine) Step() bool {
	i := e.next()
	if i < 0 {
		return false
	}
	ev := e.pending[i]
	e.remove(i)
	ev.over = true
	e.now = ev.at
	e.processed++
	ev.fn()
	return true
}

func (e *refEngine) Run() {
	for e.Step() {
	}
}

func (e *refEngine) RunUntil(deadline Time) {
	for i := e.next(); i >= 0 && e.pending[i].at <= deadline; i = e.next() {
		e.Step()
	}
	e.now = deadline
}

func (ev *refEvent) Pending() bool { return !ev.over }

func (ev *refEvent) At() Time {
	if ev.over {
		return 0
	}
	return ev.at
}

func (ev *refEvent) Cancel() bool {
	if ev.over {
		return false
	}
	ev.over = true
	ev.fn = nil
	for i, p := range ev.e.pending {
		if p == ev {
			ev.e.remove(i)
			break
		}
	}
	return true
}

// queue is what the ordering tests drive: the wheel engine (through
// wheelQueue) or the reference.
type queue interface {
	Now() Time
	Pending() int
	Processed() uint64
	Schedule(at Time, fn func()) handle
	After(d Duration, fn func()) handle
	Defer(fn func()) handle
	Step() bool
	Run()
	RunUntil(deadline Time)
}

// handle is what the ordering tests keep of a scheduled event.
type handle interface {
	Pending() bool
	At() Time
	Cancel() bool
}

// wheelQueue is an Engine seen as a queue: the same calls, handles by value.
type wheelQueue struct{ *Engine }

func newWheelQueue() queue { return wheelQueue{NewEngine()} }

func (q wheelQueue) Schedule(at Time, fn func()) handle { return q.schedule(at, fn) }
func (q wheelQueue) After(d Duration, fn func()) handle { return q.after(d, fn) }
func (q wheelQueue) Defer(fn func()) handle             { return q.schedule(q.Now(), fn) }
