package sim

import "math/bits"

// This file implements the engine's event queue: a hierarchical timer
// wheel. A binary heap over every pending event pays O(log n)
// pointer-chasing comparisons on every push and pop of the hottest loop in
// the repository; the wheel files near-future events into tick-indexed
// buckets in O(1) and pops them by scanning occupancy bitmaps, so per-event
// cost no longer grows with the pending-queue depth. The reference it is
// tested against — a slice scanned for the least (at, seq) — lives in
// oracle_test.go.
//
// # Geometry
//
// Simulated time quantizes to integer ticks at 4096 ticks per simulated
// second (a power of two, so the float64 scaling is exact and monotone:
// at1 <= at2 always implies tickOf(at1) <= tickOf(at2)). Three levels of
// 256 slots each cover a sliding window of 2^24 ticks (= 4096 simulated
// seconds) ahead of the cursor:
//
//	level 0: 256 slots x 1 tick        (buckets hold exactly one tick)
//	level 1: 256 slots x 256 ticks
//	level 2: 256 slots x 65536 ticks
//
// Events beyond the top-level window park in an overflow min-heap keyed
// (at, seq) and drain into the wheel when the window advances past them.
// Every whole simulated workload in this repository (load sweeps run
// ~2000 s) fits inside one window, so overflow traffic is rare.
//
// # Determinism
//
// The wheel pops in global (at, seq) order by construction.
// A level-0 bucket holds events of exactly one tick; when the cursor
// reaches it, the bucket is loaded into a small "active" min-heap ordered
// by (at, seq) — the engine's firing key — and fired from
// there, so events inside one tick (including same-instant Defer storms,
// which push into the active heap mid-fire) keep exact (time, sequence)
// order. Across buckets, order follows from the window invariants: the
// active heap holds the cursor tick, level 0 holds strictly later ticks in
// its window, each higher level holds strictly later ticks than the whole
// window below it, and the overflow heap holds strictly later ticks than
// the whole wheel. Since tick quantization is monotone in time, bucket
// order composed with in-bucket (at, seq) order is exactly global
// (at, seq) order.
//
// # Anchors only move when pop returns a live event
//
// Each level k covers the absolute tick range [anchor[k], anchor[k] +
// 256^(k+1)), and insertion routes by those windows, not by distance from
// the cursor — so a level's array never wraps and re-anchoring a level is
// legal only while it is empty. Anchors advance exclusively inside pop()
// (cascading a higher-level bucket down, or jumping to the overflow
// heap's horizon), and only on the way to a live event: immediately after
// pop returns it, the engine advances `now` to its time, so every later
// insert satisfies tick >= curTick >= anchor[0] and the window arithmetic
// never underflows. A wheel holding nothing but cancelled events has no
// event to advance `now` to, so pop empties it in place (purge) and leaves
// the anchors where they are — cascading through the dead buckets would
// carry the anchors past `now` and the next near-term insert would index
// below its level's window. nextAt (the peek RunUntil needs) must not
// cascade either; it reads the minimum straight out of the first occupied
// bucket instead.
//
// # Cancellation
//
// Cancel is O(1): mark the event dead, release its closure, and decrement
// the live counter (Pending's fast path). Dead events are skipped lazily
// when popped and drained eagerly whenever they surface at a bucket head —
// loading a bucket filters them out, and nextAt discards all-dead buckets
// and dead heap tops on sight — so no O(n) dead-event scan survives on
// either the pop or the peek path. Every place that drops a dead record
// hands it to eventPool.release: until then the wheel still links it, so it
// cannot be reused; from then on nothing but stale handles points at it.
const (
	wheelSlotBits = 8
	wheelSlots    = 1 << wheelSlotBits
	wheelLevels   = 3
	// wheelSpanBits is the log2 of the tick span covered by all levels.
	wheelSpanBits = wheelSlotBits * wheelLevels
	// tickHzBits scales simulated seconds to ticks: 2^12 = 4096 ticks/s,
	// fine enough that same-bucket events are genuinely near-simultaneous,
	// coarse enough that a whole load-sweep horizon fits in one window.
	tickHzBits = 12
	tickHz     = 1 << tickHzBits
)

// sentinelTick marks times too large for tick arithmetic (e.g. events
// scheduled near Forever). Sentinel events live in the overflow heap
// forever and fire straight from it in (at, seq) order.
const sentinelTick = ^uint64(0)

// maxTickFloat bounds at*tickHz so the uint64 conversion cannot overflow;
// 2^62 ticks is ~10^15 simulated seconds, far beyond any workload.
const maxTickFloat = float64(uint64(1) << 62)

// tickOf quantizes a simulated time to a wheel tick.
func tickOf(t Time) uint64 {
	f := float64(t) * tickHz
	if f >= maxTickFloat {
		return sentinelTick
	}
	return uint64(f)
}

// eventHeap is a min-heap of events ordered by (at, seq), used for the
// active bucket and the overflow region. It is a hand-rolled heap rather
// than container/heap so pushes and pops stay free of interface
// conversions and index writes on the hot path.
type eventHeap []*event

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(ev *event) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

func (h *eventHeap) pop() *event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = nil
	s = s[:n]
	*h = s
	if n > 0 {
		siftDown(s, 0)
	}
	return top
}

func siftDown(s []*event, i int) {
	n := len(s)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && eventLess(s[r], s[l]) {
			m = r
		}
		if !eventLess(s[m], s[i]) {
			return
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
}

// heapify restores the heap invariant over the whole slice, O(n).
func (h eventHeap) heapify() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

// wheelLevel is one ring of buckets plus an occupancy bitmap; firstSet
// finds the earliest occupied slot in a handful of word scans. Buckets are
// intrusive singly-linked lists through event.next — filing an event is a
// pointer write, no per-bucket slice allocation: the engine's event records
// double as the node storage. List order is scheduling-reversed
// (push-front) and does not matter: level-0 buckets are re-sorted through
// the active heap and higher-level buckets are re-filed by cascading.
type wheelLevel struct {
	buckets [wheelSlots]*event
	bitmap  [wheelSlots / 64]uint64
}

func (l *wheelLevel) set(i int)   { l.bitmap[i>>6] |= 1 << (uint(i) & 63) }
func (l *wheelLevel) clear(i int) { l.bitmap[i>>6] &^= 1 << (uint(i) & 63) }

func (l *wheelLevel) firstSet() int {
	for w, word := range l.bitmap {
		if word != 0 {
			return w<<6 | bits.TrailingZeros64(word)
		}
	}
	return -1
}

// wheel is the hierarchical timer wheel state embedded in an Engine.
type wheel struct {
	levels [wheelLevels]wheelLevel
	// anchor[k] is the absolute tick where level k's window starts; the
	// window spans 256^(k+1) ticks. Invariant: anchor[2] <= anchor[1] <=
	// anchor[0] <= curTick, and a level re-anchors only while empty.
	anchor  [wheelLevels]uint64
	curTick uint64
	// active holds the not-yet-fired events of tick curTick.
	active eventHeap
	// overflow holds events beyond the top-level window, keyed (at, seq).
	overflow eventHeap
	// live counts pending non-cancelled events: the Pending fast path.
	live int
	// pool is the engine's record pool: every cancelled record the wheel
	// drops its last link to goes back through pool.release.
	pool *eventPool

	// Observability counters, surfaced per shard in /v1/stats.
	wheelEvents    uint64 // events filed into a wheel level or the active bucket
	overflowEvents uint64 // events parked in the far-future overflow heap
	cancelsLazy    uint64 // cancels handled as O(1) dead marks
}

// schedule files a freshly created event (ev.tick already set).
func (w *wheel) schedule(ev *event) {
	w.live++
	if w.insert(ev) {
		w.overflowEvents++
	} else {
		w.wheelEvents++
	}
}

// insert routes an event to the active heap, a wheel level, or overflow by
// the window invariants. It is shared by schedule, cascading, and overflow
// drain, so it touches no counters. Reports whether the event overflowed.
func (w *wheel) insert(ev *event) bool {
	tick := ev.tick
	switch {
	case tick == w.curTick && tick != sentinelTick:
		w.active.push(ev)
	case tick < w.anchor[0]+wheelSlots:
		w.place(0, ev)
	case tick < w.anchor[1]+1<<(2*wheelSlotBits):
		w.place(1, ev)
	case tick < w.anchor[2]+1<<wheelSpanBits:
		w.place(2, ev)
	default:
		w.overflow.push(ev)
		return true
	}
	return false
}

func (w *wheel) place(level int, ev *event) {
	slot := int((ev.tick - w.anchor[level]) >> uint(level*wheelSlotBits))
	l := &w.levels[level]
	ev.next = l.buckets[slot]
	l.buckets[slot] = ev
	l.set(slot)
}

// pop removes and returns the earliest live event, or nil when none
// remain. All anchor movement happens here, and only when a live event is
// returned (see the file comment).
func (w *wheel) pop() *event {
	if w.live == 0 {
		w.purge()
		return nil
	}
	for {
		for len(w.active) > 0 {
			ev := w.active.pop()
			if ev.canceled {
				w.pool.release(ev)
				continue
			}
			w.live--
			return ev
		}
		if w.advance() {
			continue
		}
		// Wheel fully empty: the overflow heap owns whatever is left.
		for len(w.overflow) > 0 && w.overflow[0].canceled {
			w.pool.release(w.overflow.pop())
		}
		if len(w.overflow) == 0 {
			return nil
		}
		if top := w.overflow[0]; top.tick == sentinelTick {
			// Beyond tick arithmetic: fire straight from the heap. Every
			// other live event is also in overflow, so heap order is
			// global order.
			w.live--
			return w.overflow.pop()
		}
		w.reanchor(w.overflow[0].tick)
	}
}

// purge empties a wheel whose every filed event is cancelled (live == 0):
// heaps and buckets give their dead records back to the pool, while the
// anchors and the cursor stay put.
func (w *wheel) purge() {
	w.active = w.releaseAll(w.active)
	w.overflow = w.releaseAll(w.overflow)
	for k := range w.levels {
		l := &w.levels[k]
		for j := l.firstSet(); j >= 0; j = l.firstSet() {
			for ev := l.buckets[j]; ev != nil; {
				nx := ev.next
				w.pool.release(ev)
				ev = nx
			}
			l.buckets[j] = nil
			l.clear(j)
		}
	}
}

// releaseAll gives every record in h (all dead) back to the pool and returns
// h emptied.
func (w *wheel) releaseAll(h eventHeap) eventHeap {
	for i, ev := range h {
		w.pool.release(ev)
		h[i] = nil
	}
	return h[:0]
}

// advance makes one unit of wheel progress: load the earliest level-0
// bucket into the active heap, or cascade the earliest occupied bucket of
// a higher level down one level. Returns false when all levels are empty.
func (w *wheel) advance() bool {
	if j := w.levels[0].firstSet(); j >= 0 {
		w.loadBucket(j)
		return true
	}
	if j := w.levels[1].firstSet(); j >= 0 {
		w.anchor[0] = w.anchor[1] + uint64(j)<<wheelSlotBits
		w.cascade(1, j)
		return true
	}
	if j := w.levels[2].firstSet(); j >= 0 {
		w.anchor[1] = w.anchor[2] + uint64(j)<<(2*wheelSlotBits)
		w.anchor[0] = w.anchor[1]
		w.cascade(2, j)
		return true
	}
	return false
}

// loadBucket moves level-0 bucket j (one tick's events) into the active
// heap, dropping dead events eagerly, and advances the cursor to it.
func (w *wheel) loadBucket(j int) {
	l := &w.levels[0]
	w.curTick = w.anchor[0] + uint64(j)
	for ev := l.buckets[j]; ev != nil; {
		nx := ev.next
		ev.next = nil
		if ev.canceled {
			w.pool.release(ev)
		} else {
			w.active = append(w.active, ev)
		}
		ev = nx
	}
	w.active.heapify()
	l.buckets[j] = nil
	l.clear(j)
}

// cascade redistributes bucket j of the given level into the level(s)
// below, after the caller re-anchored those levels to the bucket's range.
// Dead events are dropped instead of re-filed.
func (w *wheel) cascade(level, j int) {
	l := &w.levels[level]
	head := l.buckets[j]
	l.buckets[j] = nil
	l.clear(j)
	for ev := head; ev != nil; {
		nx := ev.next
		ev.next = nil
		if ev.canceled {
			w.pool.release(ev)
		} else {
			w.insert(ev)
		}
		ev = nx
	}
}

// reanchor jumps the (empty) wheel's window to the overflow heap's next
// event and drains every overflow event inside the new window into the
// levels. Called only from pop, with tick != sentinelTick.
func (w *wheel) reanchor(tick uint64) {
	base := tick &^ (1<<wheelSpanBits - 1)
	w.anchor[2], w.anchor[1], w.anchor[0] = base, base, base
	horizon := base + 1<<wheelSpanBits
	for len(w.overflow) > 0 {
		top := w.overflow[0]
		if top.canceled {
			w.pool.release(w.overflow.pop())
			continue
		}
		if top.tick >= horizon {
			break
		}
		w.insert(w.overflow.pop())
	}
}

// nextAt reports the earliest live event's time without firing it. It
// never moves anchors (see the file comment): the minimum is read straight
// out of the first occupied bucket, which the window invariants guarantee
// contains the global minimum. All-dead buckets and dead heap tops are
// drained eagerly as they surface.
func (w *wheel) nextAt() (Time, bool) {
	for len(w.active) > 0 {
		if !w.active[0].canceled {
			return w.active[0].at, true
		}
		w.pool.release(w.active.pop())
	}
	for lvl := 0; lvl < wheelLevels; lvl++ {
		l := &w.levels[lvl]
		for {
			j := l.firstSet()
			if j < 0 {
				break
			}
			// Scan for the bucket's live minimum, unlinking dead events in
			// passing so repeated peeks never rescan them.
			var min *event
			prev := &l.buckets[j]
			for ev := *prev; ev != nil; ev = *prev {
				if ev.canceled {
					*prev = ev.next
					w.pool.release(ev)
					continue
				}
				if min == nil || eventLess(ev, min) {
					min = ev
				}
				prev = &ev.next
			}
			if min != nil {
				return min.at, true
			}
			// Every event in the bucket was cancelled: release the slot.
			l.clear(j)
		}
	}
	for len(w.overflow) > 0 {
		if !w.overflow[0].canceled {
			return w.overflow[0].at, true
		}
		w.pool.release(w.overflow.pop())
	}
	return 0, false
}

// reserve pre-sizes the active and overflow heaps from a predecessor
// engine's high-water mark.
func (w *wheel) reserve(n int) {
	if a := min(n, wheelSlots); cap(w.active) < a {
		act := make(eventHeap, len(w.active), a)
		copy(act, w.active)
		w.active = act
	}
	if cap(w.overflow) < n {
		ovf := make(eventHeap, len(w.overflow), n)
		copy(ovf, w.overflow)
		w.overflow = ovf
	}
}
