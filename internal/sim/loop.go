package sim

import "sync"

// Loop is the service-drivable stepping mode of an Engine: a long-lived
// daemon goroutine pumps the event queue while other goroutines inject work.
//
// The engine itself stays strictly single-threaded — every callback and every
// injected closure executes on the goroutine that called Run — so nothing in
// the simulation needs locks and per-shard determinism is preserved for a
// fixed submission order. Other goroutines interact with the simulation only
// through PostTask (and Post, its closure form), which enqueues work for the
// loop goroutine to execute at the current simulated instant.
//
// The loop alternates between draining the post inbox and executing a bounded
// batch of simulation events, so submissions arriving mid-backlog are admitted
// promptly instead of waiting for the queue to empty. When both the inbox and
// the event queue are empty the loop blocks; simulated time only advances
// while events execute.
type Loop struct {
	eng *Engine

	// tick, when set, runs on the loop goroutine after every batch of
	// simulation events (see SetTick). It is read without the mutex, so it
	// must be installed before Run starts.
	tick func()

	mu   sync.Mutex
	cond *sync.Cond
	// inbox collects posted tasks; Run swaps it with spare each batch, so the
	// two backing arrays alternate instead of a fresh one growing per batch.
	// spare belongs to the Run goroutine between swaps.
	inbox, spare []Task
	posted       uint64
	closed       bool
	// holds counts outstanding LoopHolds: external completions the loop has
	// promised to wait for before draining (see Hold).
	holds int
	done  chan struct{}
}

// stepBatch bounds how many simulation events execute between inbox drains.
const stepBatch = 256

// NewLoop wraps an engine for daemon-driven stepping. The caller must start
// exactly one goroutine executing Run; the engine must not be driven through
// Run/RunUntil/Step by anyone else afterwards.
func NewLoop(eng *Engine) *Loop {
	l := &Loop{eng: eng, done: make(chan struct{})}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// SetTick installs a maintenance hook the loop invokes on its own goroutine
// after each batch of executed events, while the simulation is quiescent at
// the current instant. It is how periodic housekeeping (telemetry
// compaction, budget checks) rides the loop without scheduling simulation
// events of its own — a permanently re-armed sim timer would keep the event
// queue non-empty forever and defeat drain-on-Close. The hook must be cheap
// (it runs once per pump iteration) and must be installed before the Run
// goroutine starts; it never runs concurrently with simulation callbacks.
func (l *Loop) SetTick(fn func()) { l.tick = fn }

// Task is one unit of posted work: Run executes on the loop goroutine at the
// current simulated time. A caller that already owns a heap record for the
// work (the serving pool's job record) posts the record itself and allocates
// nothing for the hand-off; everything else posts a closure through Post.
type Task interface{ Run() }

// funcTask adapts a closure to Task. A func value is pointer-shaped, so the
// conversion to the interface does not allocate.
type funcTask func()

func (f funcTask) Run() { f() }

// PostTask schedules t to run on the loop goroutine at the current simulated
// time. It is safe to call from any goroutine and returns false (dropping t)
// once the loop is closing — callers should surface that as "shutting down".
func (l *Loop) PostTask(t Task) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	l.inbox = append(l.inbox, t)
	l.posted++
	l.cond.Signal()
	return true
}

// Post is PostTask for a closure.
func (l *Loop) Post(fn func()) bool {
	if fn == nil {
		panic("sim: Post with nil closure")
	}
	return l.PostTask(funcTask(fn))
}

// LoopHold is a promise of exactly one future completion post. It exists for
// work the loop hands off to other goroutines (off-loop plan search): a plain
// Post races with Close — once the loop starts draining, Post drops the
// closure and the handed-off work's result would be lost, leaving its waiters
// stranded forever. A hold taken before the hand-off keeps Run from exiting
// until the completion lands, so drain-on-Close still covers work that is
// momentarily outside the simulation.
type LoopHold struct {
	l    *Loop
	done bool // guarded by l.mu
}

// Hold reserves the loop for one future completion. It must be called on the
// loop goroutine (from an executing closure or simulation callback), which
// guarantees Run cannot have exited yet. Every hold must eventually be
// resolved by exactly one Post or Release, or Close blocks forever.
func (l *Loop) Hold() *LoopHold {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.holds++
	return &LoopHold{l: l}
}

// PostTask delivers the held completion: t is enqueued for the loop goroutine
// even when the loop is already draining (that is the point of the hold), and
// the hold is released. Safe to call from any goroutine; using a hold twice
// panics.
func (h *LoopHold) PostTask(t Task) {
	l := h.l
	l.mu.Lock()
	defer l.mu.Unlock()
	if h.done {
		panic("sim: LoopHold resolved twice")
	}
	h.done = true
	l.holds--
	l.inbox = append(l.inbox, t)
	l.posted++
	l.cond.Signal()
}

// Post is PostTask for a closure.
func (h *LoopHold) Post(fn func()) {
	if fn == nil {
		panic("sim: LoopHold.Post with nil closure")
	}
	h.PostTask(funcTask(fn))
}

// Release abandons the hold without posting. Idempotent after the hold is
// resolved.
func (h *LoopHold) Release() {
	l := h.l
	l.mu.Lock()
	defer l.mu.Unlock()
	if h.done {
		return
	}
	h.done = true
	l.holds--
	l.cond.Signal()
}

// Posted reports the total number of tasks accepted so far
// (observability; also lets tests sequence posts deterministically against
// a deliberately stalled loop, where inbox depth would depend on how many
// the loop already batched out).
func (l *Loop) Posted() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.posted
}

// Run pumps the loop until Close is called and both the inbox and the event
// queue have drained. It blocks; run it on a dedicated goroutine.
func (l *Loop) Run() {
	defer close(l.done)
	for {
		l.mu.Lock()
		for len(l.inbox) == 0 && l.eng.Pending() == 0 && (!l.closed || l.holds > 0) {
			l.cond.Wait()
		}
		batch := l.inbox
		l.inbox = l.spare
		closing := l.closed
		l.mu.Unlock()

		for _, t := range batch {
			t.Run()
		}
		// Drop the batch's references before its array becomes the next
		// inbox: an idle loop must not pin the last burst's records.
		clear(batch)
		l.spare = batch[:0]
		for i := 0; i < stepBatch && l.eng.Step(); i++ {
		}
		if l.tick != nil {
			l.tick()
		}

		if closing && l.eng.Pending() == 0 {
			l.mu.Lock()
			drained := len(l.inbox) == 0 && l.holds == 0
			l.mu.Unlock()
			if drained {
				return
			}
		}
	}
}

// Close stops the loop after in-flight work drains: posts already accepted,
// every simulation event they cascade into, and every outstanding Hold's
// completion still execute, then Run returns. Close blocks until the loop
// goroutine has exited and is safe to call more than once.
func (l *Loop) Close() {
	l.mu.Lock()
	l.closed = true
	l.cond.Signal()
	l.mu.Unlock()
	<-l.done
}
