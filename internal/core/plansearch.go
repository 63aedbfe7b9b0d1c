package core

import (
	"runtime"
	"sync"

	"repro/internal/cluster"
	"repro/internal/optimizer"
	"repro/internal/planner"
	"repro/internal/sim"
	"repro/internal/workflow"
)

// Off-loop admission (the serving tier's "fast as the hardware allows" item):
// a shard's loop goroutine is the only place cluster state may be touched, so
// with inline planning every job's decompose → profile lookup → configuration
// search runs serialized on one core and plans/sec is bounded by it.
// This file moves the expensive, side-effect-free part of admission — the
// configuration search — onto a pool of worker goroutines:
//
//   - dispatch (loop goroutine): capture the capacity class (an immutable
//     cluster.Snapshot of the totals, memoized per CapacityGen) plus the
//     generations the plan depends on (capacity class, profile store,
//     library) and hand the job to a worker. Identical concurrent searches
//     (same job content, options, capacity class, generations) are deduped
//     through a singleflight table so a burst of like jobs runs one search.
//   - search (worker goroutine): decompose the job and run the optimizer
//     against the captured snapshot. Workers use goroutine-local planner and
//     optimizer instances and never touch the engine or the cluster, so the
//     simulation stays strictly single-threaded.
//   - commit (loop goroutine): validate the captured generations against the
//     live cluster. If they still hold, the searched plan is bit-identical
//     to what inline planning would produce now — optimistic concurrency
//     with a serialized commit — and is adopted into the runtime's shared
//     caches. If they moved (VM added, preemption, recalibration), the
//     result is discarded and the job re-plans inline at admission, exactly
//     like the serial path; PlanConflicts counts those.
//
// Drain safety: each dispatched search takes a sim.LoopHold, so a shard
// draining for shutdown or recycling waits for in-flight searches to commit
// (and their jobs to run) instead of stranding them.

// preparedPlan is a decomposition + plan pair ready for Runtime.launch,
// stamped with the generations it is valid under. Validity is checked twice:
// at commit (searched results) and again at start — a job can wait in the
// admission queue past a fleet change, and launching then must re-plan
// against current capacity exactly as the serial path would.
type preparedPlan struct {
	decomp *planner.Result
	plan   *optimizer.Plan
	capGen uint64
	// storeGen/libGen pin the profile-store and library generations.
	storeGen int
	libGen   int
}

// valid reports whether the prepared pair still matches the live generations.
func (p *preparedPlan) valid(rt *Runtime) bool {
	return p.capGen == rt.cl.CapacityGen() &&
		p.storeGen == rt.store.Gen() &&
		p.libGen == rt.lib.Gen()
}

// searchWork is one unit for the worker pool: admission plan searches and
// mid-flight reconfiguration searches share the same workers, goroutine-local
// planner/optimizer instances and hold-based drain safety. A unit is one
// record for both hand-offs: a worker runs search, which posts the unit itself
// back through its hold, and the loop goroutine then runs Run — the commit.
type searchWork interface {
	search(pl *planner.Planner, opt *optimizer.Optimizer)
	sim.Task
}

// searchTask is one singleflight plan search. The result fields are written
// by the worker before the commit post and read on the loop goroutine after
// it (the hold's inbox hand-off orders them); decomp may instead be pre-set
// at dispatch when the shard already had the decomposition cached. The
// submission that dispatched the search is first; more holds the ones that
// joined it while it was in flight.
type searchTask struct {
	key    string
	jobKey string
	job    workflow.Job
	opts   SubmitOptions
	planO  optimizer.Options
	snap   cluster.Snapshot
	capGen uint64
	// storeGen/libGen pin the profile-store and library contents the search
	// reads; commit re-checks them alongside the capacity generation.
	storeGen int
	libGen   int
	hold     *sim.LoopHold
	first    *Handle
	more     []*Handle

	decomp *planner.Result
	plan   *optimizer.Plan
	err    error

	ps *planSearch
}

// search executes the admission search on a worker goroutine.
func (t *searchTask) search(pl *planner.Planner, opt *optimizer.Optimizer) {
	if t.decomp == nil {
		t.decomp, t.err = pl.Decompose(t.job)
	}
	if t.err == nil {
		t.plan, t.err = opt.Plan(t.decomp.Graph, t.snap, t.planO)
	}
	t.hold.PostTask(t)
}

// Run commits the search on the loop goroutine.
func (t *searchTask) Run() { t.ps.s.commit(t) }

// reconfigSearch is one mid-flight re-plan over a running job's remaining
// DAG. It is never singleflighted — the remaining graph is unique to the
// job's progress — but rides the same pool, snapshot discipline and
// generation-validated commit as admission searches.
type reconfigSearch struct {
	ps     *planSearch
	h      *Handle
	r      *replan
	capGen uint64
	// storeGen/libGen pin the profile-store and library contents the search
	// reads; commit re-checks them alongside the capacity generation.
	storeGen int
	libGen   int
	hold     *sim.LoopHold

	res replanResult
}

// search executes the re-plan on a worker goroutine.
func (t *reconfigSearch) search(_ *planner.Planner, opt *optimizer.Optimizer) {
	t.res = t.r.search(opt)
	t.hold.PostTask(t)
}

// Run commits the re-plan on the loop goroutine.
func (t *reconfigSearch) Run() { t.ps.s.commitReconfig(t) }

// planSearch is the worker pool plus the loop-goroutine-owned singleflight
// table.
type planSearch struct {
	s    *Scheduler
	loop *sim.Loop

	// inflight maps search keys to their pending task. It is only touched on
	// the loop goroutine (dispatch and commit), so it needs no lock.
	inflight map[string]*searchTask

	// queue[head:] is the pending work. pop clears the slot it takes and an
	// emptied queue rewinds to the front of its array, so a drained pool pins
	// no task and a push into spare capacity allocates nothing.
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []searchWork
	head   int
	closed bool
	wg     sync.WaitGroup
}

// startPlanSearch starts the off-loop plan-search worker pool over the
// runtime's Config.Loop (see NewScheduler).
func (s *Scheduler) startPlanSearch() {
	workers := s.rt.cfg.PlanWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Force the library's lazily-memoized renderings now, on a single
	// goroutine: the planner's prompt-token accounting reads SystemPrompt on
	// every decomposition, and pre-warming makes that a pure read for the
	// concurrent workers.
	s.rt.lib.SystemPrompt()
	s.rt.lib.Fingerprint()
	ps := &planSearch{s: s, loop: s.rt.cfg.Loop, inflight: map[string]*searchTask{}}
	ps.cond = sync.NewCond(&ps.mu)
	for i := 0; i < workers; i++ {
		ps.wg.Add(1)
		go ps.worker()
	}
	s.search = ps
	s.planWorkers = workers
}

// StopPlanSearch terminates the worker pool. Call it after the driving loop
// has drained (Loop.Close returned): Run cannot exit while a search holds the
// loop, so by then every dispatched search has committed and the queue is
// empty. No-op for serial schedulers; safe to call more than once.
func (s *Scheduler) StopPlanSearch() {
	if s.search == nil {
		return
	}
	ps := s.search
	ps.mu.Lock()
	ps.closed = true
	ps.cond.Broadcast()
	ps.mu.Unlock()
	ps.wg.Wait()
}

// PlanWorkers returns the worker-pool size (0 for serial schedulers).
func (s *Scheduler) PlanWorkers() int { return s.planWorkers }

// dispatch hands a submission to the worker pool, deduplicating against
// in-flight searches for the same key. Runs on the loop goroutine; jk is the
// job's content key from probePrepared, and decomp — when the probe found the
// decomposition half cached — lets the worker skip re-decomposing (the graph
// is frozen and immutable, so sharing it off-loop is safe).
func (ps *planSearch) dispatch(h *Handle, jk string, decomp *planner.Result) {
	rt := ps.s.rt
	planO := planOptions(h.job, h.opts)
	rt.keyBuf = rt.appendSearchKey(rt.keyBuf[:0], jk, planO)
	if t, ok := ps.inflight[string(rt.keyBuf)]; ok {
		t.more = append(t.more, h)
		rt.counters.SingleflightHits++
		return
	}
	snap, _ := rt.capacityClass()
	t := &searchTask{
		key:      string(rt.keyBuf),
		jobKey:   jk,
		job:      h.job,
		opts:     h.opts,
		planO:    planO,
		snap:     snap,
		capGen:   rt.cl.CapacityGen(),
		storeGen: rt.store.Gen(),
		libGen:   rt.lib.Gen(),
		hold:     ps.loop.Hold(),
		first:    h,
		decomp:   decomp,
		ps:       ps,
	}
	ps.inflight[t.key] = t
	rt.counters.PlanSearches++
	ps.enqueue(t)
}

// dispatchReconfig hands a mid-flight re-plan to the worker pool. Runs on the
// loop goroutine; the hold keeps a draining shard from stranding the commit.
func (ps *planSearch) dispatchReconfig(h *Handle, r *replan) {
	s := ps.s
	ps.enqueue(&reconfigSearch{
		ps:       ps,
		h:        h,
		r:        r,
		capGen:   s.rt.cl.CapacityGen(),
		storeGen: s.rt.store.Gen(),
		libGen:   s.rt.lib.Gen(),
		hold:     ps.loop.Hold(),
	})
}

// enqueue pushes one unit onto the worker queue.
func (ps *planSearch) enqueue(w searchWork) {
	ps.mu.Lock()
	ps.queue = append(ps.queue, w)
	ps.cond.Signal()
	ps.mu.Unlock()
}

// pop takes the oldest queued unit. The caller holds ps.mu and has checked
// that one is queued.
func (ps *planSearch) pop() searchWork {
	w := ps.queue[ps.head]
	ps.queue[ps.head] = nil
	if ps.head++; ps.head == len(ps.queue) {
		ps.queue, ps.head = ps.queue[:0], 0
	}
	return w
}

// queued reports how many units wait for a worker. The caller holds ps.mu.
func (ps *planSearch) queued() int { return len(ps.queue) - ps.head }

// worker runs searches with goroutine-local planner/optimizer instances until
// the pool closes (draining any queued tasks first, so every hold resolves).
func (ps *planSearch) worker() {
	defer ps.wg.Done()
	pl := planner.New(ps.s.rt.lib)
	opt := ps.s.rt.opt.Clone()
	for {
		ps.mu.Lock()
		for ps.queued() == 0 && !ps.closed {
			ps.cond.Wait()
		}
		if ps.queued() == 0 {
			ps.mu.Unlock()
			return
		}
		t := ps.pop()
		ps.mu.Unlock()

		t.search(pl, opt)
	}
}

// commitReconfig is the on-loop half of an off-loop re-plan: validate the
// captured generations, then hand the result to the hysteresis test. Drift
// discards the result — the trigger that moved the generations has already
// scheduled a fresh evaluation pass, exactly like admission's conflict
// re-plan falling back to current state.
func (s *Scheduler) commitReconfig(t *reconfigSearch) {
	t.h.reconfigInflight = false
	if t.capGen != s.rt.cl.CapacityGen() || t.storeGen != s.rt.store.Gen() || t.libGen != s.rt.lib.Gen() {
		s.rt.counters.ReconfigConflicts++
		return
	}
	s.finishReconfig(t.h, t.res)
}

// commit is the on-loop half of optimistic admission: validate the captured
// generations and either adopt the searched plan or mark the waiters for an
// inline re-plan. Waiters canceled while the search was in flight are
// skipped.
func (s *Scheduler) commit(t *searchTask) {
	delete(s.search.inflight, t.key)
	var prep preparedPlan // stays zero when the waiters must re-plan inline
	stale := false
	switch {
	case t.err != nil:
		// The search failed (e.g. no feasible configuration). Fall back to
		// inline planning so the job fails — or, if the cluster changed in
		// the meantime, succeeds — exactly as serial admission would against
		// current state.
	case t.capGen != s.rt.cl.CapacityGen() || t.storeGen != s.rt.store.Gen() || t.libGen != s.rt.lib.Gen():
		// Stale snapshot: the capacity class (or a profile/library
		// generation) moved between capture and commit. Count one conflict
		// per affected admission; each re-plans inline at start.
		stale = true
	default:
		prep = s.rt.adoptPrepared(t.jobKey, t.job, t.opts, t.decomp, t.plan)
	}
	for i := 0; i <= len(t.more); i++ {
		h := t.first
		if i > 0 {
			h = t.more[i-1]
		}
		if h.status != JobQueued {
			continue // canceled while the search was in flight
		}
		if stale {
			s.rt.counters.PlanConflicts++
		}
		h.planReady = true
		h.prepared = prep
	}
	s.se.Defer(s.pumpFn)
}
