package sim

// This file provides small coordination helpers layered on the raw event
// engine: countdown latches, periodic tickers, and resource tokens. They keep
// higher-level packages (cluster manager, runtime) free of ad-hoc event
// bookkeeping.

// Latch invokes its callback once a fixed number of Done calls have arrived.
// It is the simulation analogue of sync.WaitGroup + Wait, expressed as a
// completion callback because the engine is single-threaded.
type Latch struct {
	remaining int
	fired     bool
	engine    *Engine
	onDone    func()
}

// NewLatch creates a latch expecting n completions. If n is zero the callback
// fires on the next tick (deferred, so the caller can finish wiring first).
func NewLatch(e *Engine, n int, onDone func()) *Latch {
	if n < 0 {
		panic("sim: latch with negative count")
	}
	l := &Latch{remaining: n, engine: e, onDone: onDone}
	if n == 0 {
		e.Defer(l.fire)
	}
	return l
}

// Add increases the expected completion count. Adding after the latch fired
// panics: the coordination it guarded has already proceeded.
func (l *Latch) Add(n int) {
	if l.fired {
		panic("sim: Latch.Add after fire")
	}
	l.remaining += n
}

// Done records one completion, firing the callback when the count reaches
// zero.
func (l *Latch) Done() {
	if l.fired {
		panic("sim: Latch.Done after fire")
	}
	l.remaining--
	if l.remaining < 0 {
		panic("sim: Latch.Done below zero")
	}
	if l.remaining == 0 {
		l.fire()
	}
}

func (l *Latch) fire() {
	if l.fired {
		return
	}
	l.fired = true
	if l.onDone != nil {
		l.onDone()
	}
}

// Ticker invokes a callback at a fixed period until stopped. The callback
// receives the tick time. Tickers drive utilization sampling and the cluster
// manager's rebalancing loop.
type Ticker struct {
	engine  *Engine
	period  Duration
	fn      func(Time)
	next    Event
	stopped bool
	// tickFn is the onTick method value, materialized once — arm() runs
	// every period, and a literal closure there would allocate per tick.
	tickFn func()
}

// NewTicker starts a ticker firing every period seconds, with the first tick
// one period from now. A non-positive period panics.
func NewTicker(e *Engine, period Duration, fn func(Time)) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	t.tickFn = t.onTick
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.next = t.engine.after(t.period, t.tickFn)
}

func (t *Ticker) onTick() {
	if t.stopped {
		return
	}
	now := t.engine.Now()
	t.fn(now)
	if !t.stopped {
		t.arm()
	}
}

// Stop cancels future ticks. Safe to call multiple times.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.next.Cancel()
}

// Tokens is a counted resource with a FIFO wait queue: Acquire either grants
// immediately or parks the callback until Release makes capacity available.
// The cluster allocator and LLM admission control are built on it.
type Tokens struct {
	engine   *Engine
	capacity int
	inUse    int
	waiters  []tokenWaiter
}

type tokenWaiter struct {
	n  int
	fn func()
}

// NewTokens creates a token pool with the given capacity.
func NewTokens(e *Engine, capacity int) *Tokens {
	if capacity < 0 {
		panic("sim: negative token capacity")
	}
	return &Tokens{engine: e, capacity: capacity}
}

// InUse returns the number of tokens currently held.
func (tk *Tokens) InUse() int { return tk.inUse }

// Available returns the number of free tokens.
func (tk *Tokens) Available() int { return tk.capacity - tk.inUse }

// Resize changes capacity. Shrinking below the in-use count is allowed — the
// pool simply stops granting until enough tokens are released. Growth drains
// the wait queue.
func (tk *Tokens) Resize(capacity int) {
	if capacity < 0 {
		panic("sim: negative token capacity")
	}
	tk.capacity = capacity
	tk.drain()
}

// Acquire requests n tokens and invokes granted when they are held. Grants
// are FIFO; a large request at the head blocks later small ones (no
// starvation). Requests larger than capacity panic: they could never be
// granted.
func (tk *Tokens) Acquire(n int, granted func()) {
	if n < 0 {
		panic("sim: negative token acquire")
	}
	if n > tk.capacity && tk.capacity > 0 {
		panic("sim: token acquire exceeds capacity")
	}
	tk.waiters = append(tk.waiters, tokenWaiter{n: n, fn: granted})
	tk.drain()
}

// Release returns n tokens to the pool.
func (tk *Tokens) Release(n int) {
	if n < 0 {
		panic("sim: negative token release")
	}
	tk.inUse -= n
	if tk.inUse < 0 {
		panic("sim: token release below zero")
	}
	tk.drain()
}

func (tk *Tokens) drain() {
	for len(tk.waiters) > 0 {
		w := tk.waiters[0]
		if tk.inUse+w.n > tk.capacity {
			return
		}
		tk.waiters = tk.waiters[1:]
		tk.inUse += w.n
		// Defer the grant so the callback observes a consistent pool and
		// cannot recursively reorder the queue mid-drain.
		tk.engine.Defer(w.fn)
	}
}
