package core

import (
	"fmt"
	"strconv"

	"repro/internal/agents"
	"repro/internal/cluster"
	"repro/internal/dag"
	"repro/internal/llmsim"
	"repro/internal/optimizer"
	"repro/internal/sim"
)

// stage executes one capability's tasks as a resumable segment bound to one
// optimizer decision. LLM capabilities submit to a shared serving engine
// (concurrency via continuous batching); everything else runs on an elastic
// worker pool that holds resources only while work is queued — releasing
// them the moment the stage drains, which is the anti-stranding behaviour
// the baseline lacks.
//
// The binding (dec/im/isLLM) is stage-local rather than read through the
// execution's plan so the reconfiguration controller can swap it at a stage
// boundary: rebind installs a new decision for tasks that have not started,
// while tasks in flight always finish under the binding they started with.
//
// A stage is an element of its execution's stages array, and tasks are node
// indices of the execution's graph: queue and workers are cut from the
// execution's block, sized by launch from tasks and the binding.
type stage struct {
	ex  *Execution
	cap string
	// tasks counts the graph's nodes of this capability; embeds marks the
	// embedding stage, whose completions the execution notes (afterTask).
	tasks  int
	embeds bool
	// dec is the segment's current binding — the decision every task of this
	// stage executes under until the next rebind.
	dec   optimizer.Decision
	isLLM bool
	// im is the binding's implementation, looked up once per rebind via the
	// no-clone Library.Lookup (read-only by contract — the dispatch hot path
	// must not allocate a defensive copy per task). nil if the decision
	// names an unknown implementation — workers surface that as an
	// execution error.
	im *agents.Implementation

	// queue pops by the qHead cursor — queue[qHead:] is what waits — and
	// resets when it drains, so a burst of tasks reuses one array.
	queue   []int32
	qHead   int
	workers []*worker
	// idle and busy count this stage's workers that hold their allocations
	// without a task, and that are running one; worker.setState keeps them
	// at every transition, so pump asks them instead of scanning the pool
	// each iteration.
	idle, busy int
	// inflight counts tasks executing right now (submitted LLM requests or
	// busy workers). A stage is at a boundary — and its binding swappable —
	// exactly when inflight is zero; queued tasks have not started and may
	// re-route.
	inflight int

	// rebinding gates pump during rebind's teardown: destroying a worker
	// releases its allocation, which synchronously re-grants to this stage's
	// still-acquiring workers — and their becomeReady→pump would start tasks
	// under the outgoing binding mid-teardown.
	rebinding    bool
	shutdownFlag bool

	// pumpFn is the method value st.pump, materialized the first time a pump
	// is deferred (only a preemption or a timeout defers one) and kept: a
	// fresh closure per Defer showed up in the allocation profile.
	pumpFn func()
}

// bind makes st the stage for one capability of ex's graph under its planned
// decision.
func (st *stage) bind(ex *Execution, capability string, dec optimizer.Decision) {
	*st = stage{ex: ex, cap: capability, embeds: agents.Capability(capability) == agents.CapEmbedding}
	st.setBinding(dec)
}

func (st *stage) setBinding(dec optimizer.Decision) {
	st.dec = dec
	st.im, _ = st.ex.rt.lib.Lookup(dec.Implementation)
	st.isLLM = st.ex.engineServed(st.cap, dec)
}

// width is how many workers the binding can have at once: its parallelism,
// and never more than the stage has tasks.
func (st *stage) width() int { return max(min(st.dec.Parallelism, st.tasks), 0) }

// stageNamed returns the stage for a capability, nil when the graph has no
// node of it. For the paths that start from a plan's capability names
// (reconfiguration, degradation); the task path indexes ex.stages by slot.
func (ex *Execution) stageNamed(capability string) *stage {
	for i := range ex.stages {
		if ex.stages[i].cap == capability {
			return &ex.stages[i]
		}
	}
	return nil
}

// deferPump runs pump once the current event has unwound.
func (st *stage) deferPump() {
	if st.pumpFn == nil {
		st.pumpFn = st.pump
	}
	st.ex.rt.se.Defer(st.pumpFn)
}

// beginRebind freezes the segment at its stage boundary: the pump is gated
// until finishRebind, so nothing can start a task under the outgoing
// binding. Adoption freezes EVERY stage it will rebind before tearing any
// of them down — a teardown releases allocations the cluster manager
// re-grants synchronously, and an unfrozen sibling's pump would otherwise
// start a task under a binding the same adoption is about to replace.
// Callers guarantee inflight == 0.
func (st *stage) beginRebind() {
	if st.inflight != 0 {
		panic("core: stage rebind with tasks in flight")
	}
	st.rebinding = true
}

// finishRebind tears the frozen segment's workers down (their grants
// release), installs the new decision and re-routes queued tasks under it —
// including across the worker-pool/engine-served divide.
func (st *stage) finishRebind(dec optimizer.Decision) {
	for len(st.workers) > 0 {
		st.workers[0].destroy()
	}
	st.rebinding = false
	st.setBinding(dec)
	// The waiting tasks go round again through a queue of their own: enqueue
	// appends while this loop still reads the old one.
	q := st.queue[st.qHead:]
	st.queue, st.qHead = nil, 0
	for _, i := range q {
		st.enqueue(i)
	}
}

// enqueue takes node i of the graph, already marked running in the tracker.
func (st *stage) enqueue(i int32) {
	if st.isLLM {
		st.submitLLM(i)
		return
	}
	st.queue = append(st.queue, i)
	st.pump()
}

// --- LLM path ---------------------------------------------------------------

// llmTask is the top-k barrier state for one engine-served node: all
// execution paths share it and the last completion releases it. Tasks are
// recycled through the runtime's pool (the completion callback is a method
// value materialized once per task object), and so are the requests, so
// steady-state LLM dispatch allocates nothing.
type llmTask struct {
	st   *stage
	node int32
	// spanStart is when the node's span opened (see Execution.startSpan).
	spanStart float64
	remaining int
	firstErr  error
	fn        func(*llmsim.Request)
}

func (rt *Runtime) newLLMTask() *llmTask {
	if n := len(rt.llmTaskPool); n > 0 && !rt.cfg.noReuse {
		t := rt.llmTaskPool[n-1]
		rt.llmTaskPool[n-1] = nil
		rt.llmTaskPool = rt.llmTaskPool[:n-1]
		rt.counters.ScratchPoolHits++
		return t
	}
	rt.counters.ScratchPoolMisses++
	t := &llmTask{}
	t.fn = t.onComplete
	return t
}

func (rt *Runtime) releaseLLMTask(t *llmTask) {
	t.st, t.firstErr = nil, nil
	if !rt.cfg.noReuse && len(rt.llmTaskPool) < poolCap {
		rt.llmTaskPool = append(rt.llmTaskPool, t)
	}
}

func (t *llmTask) onComplete(r *llmsim.Request) {
	if r.Err != nil && t.firstErr == nil {
		t.firstErr = r.Err
	}
	// Before anything below can submit again: the next call takes this record.
	t.st.ex.rt.releaseRequest(r)
	t.remaining--
	if t.remaining > 0 {
		return // top-k barrier: wait for all paths
	}
	// Copy out and release first: the completion below can synchronously
	// enqueue more LLM nodes, which draw fresh tasks from the pool.
	st, node, spanStart, firstErr := t.st, t.node, t.spanStart, t.firstErr
	ex := st.ex
	ex.rt.releaseLLMTask(t)
	st.inflight--
	if ex.done {
		return // canceled mid-request: drop the result
	}
	ex.endSpan(node, spanStart)
	if firstErr != nil {
		// An injected call error fails the whole task (all paths re-run on
		// retry — the barrier's unit is the node, not the path).
		st.taskFailed(node, firstErr)
		return
	}
	if ex.rt.recovery != nil {
		ex.rt.mgr.ReportOutcome(st.dec.Implementation, true)
	}
	st.afterTask(node)
	ex.completeNode(node)
}

func (st *stage) submitLLM(i int32) {
	ex := st.ex
	rt := ex.rt
	d := st.dec
	node := ex.graph.NodeAt(int(i))
	if _, err := rt.pl.ToolCallAt(ex.decomp, int(i), d.Implementation); err != nil {
		ex.finish(fmt.Errorf("core: tool-call generation for %s: %w", node.ID, err))
		return
	}
	ex.toolCalls++

	spec, _ := engineSpecFor(d.Implementation)
	h, ok := rt.mgr.Engine(spec.Name)
	if !ok {
		ex.finish(fmt.Errorf("core: engine %s missing for %s", spec.Name, node.ID))
		return
	}
	prompt := metaInt(node, "prompt_tokens", int(node.Work))
	output := metaInt(node, "output_tokens", 0)

	paths := d.ExecutionPaths
	if paths < 1 {
		paths = 1
	}
	st.inflight++
	t := rt.newLLMTask()
	t.st, t.node, t.remaining = st, i, paths
	t.spanStart = ex.startSpan()
	for p := 0; p < paths; p++ {
		// Request IDs repeat across structurally-identical jobs; intern them
		// like the cache keys instead of re-materializing each submission.
		rt.keyBuf = append(rt.keyBuf[:0], node.ID...)
		rt.keyBuf = append(rt.keyBuf, '#')
		rt.keyBuf = strconv.AppendInt(rt.keyBuf, int64(p), 10)
		r := rt.newRequest()
		r.ID = rt.internKey(rt.keyBuf)
		r.PromptTokens, r.OutputTokens = prompt, output
		r.OnComplete = t.fn
		h.Engine.Submit(r)
	}
}

// afterTask applies capability-specific side effects: an embedding task's
// document (the VectorDB insert of the §4 setup) is noted here and made when
// someone reads it, see Execution.Documents.
func (st *stage) afterTask(i int32) {
	if st.embeds {
		st.ex.embedded = append(st.ex.embedded, i)
	}
}

// --- worker-pool path --------------------------------------------------------

// worker holds one per-instance allocation and processes queued tasks
// back-to-back.
type worker struct {
	st       *stage
	gpuAlloc *cluster.GPUAlloc
	cpuAlloc *cluster.CPUAlloc
	ready    bool // allocations held
	busy     bool
	// current is the node index of the task in hand, meaningful while busy.
	current int32
	doneEv  sim.Event
	// doneAt is doneEv's firing time, kept so an injected stall can push
	// the completion out without recomputing the task's duration.
	doneAt sim.Time
	// watchdogEv is the stage-timeout watchdog (armed only when recovery
	// sets a StageTimeoutS; see faults.go).
	watchdogEv sim.Event
	// spanStart is when the span of the task in hand opened.
	spanStart float64
	dead      bool
	// gen counts destroys: a request queued at the cluster manager carries
	// the generation it was issued under as its token, so a grant that
	// outlives its worker's destroy (and possible reuse off the runtime's
	// free list) is released instead of resurrecting stale state.
	gen uint32
	// taskDoneFn/timedOutFn/preemptFn are method values materialized once
	// per worker; every task execution (and every allocation grant) would
	// otherwise mint a fresh closure on the hot path.
	taskDoneFn func()
	timedOutFn func()
	preemptFn  func()
}

// pump assigns queued tasks to ready workers, growing the pool up to the
// decision's parallelism.
func (st *stage) pump() {
	if st.shutdownFlag || st.rebinding {
		return
	}
	d := st.dec
	for st.qHead < len(st.queue) {
		w := st.idleReadyWorker()
		if w == nil {
			break
		}
		node := st.queue[st.qHead]
		st.qHead++
		if st.qHead == len(st.queue) {
			st.queue, st.qHead = st.queue[:0], 0
		}
		w.run(node)
	}
	// Grow the pool for remaining queued work: every worker that is not busy
	// is acquiring or idle, and will take a queued task.
	for len(st.queue)-st.qHead > len(st.workers)-st.busy && len(st.workers) < d.Parallelism {
		st.spawnWorker()
	}
	// Drain idle workers when nothing is queued: release resources. The range
	// walks a snapshot of st.workers while destroy splices the live slice, so
	// it skips the successor of every worker it destroys (and can revisit the
	// stale tail slot). That visiting order decides when cores are released and
	// which worker a later task lands on; every pinned output depends on it.
	if len(st.queue) == st.qHead {
		for _, w := range st.workers {
			if w.ready && !w.busy {
				w.destroy()
			}
		}
	}
}

// idleReadyWorker returns the first worker, in pool order, that holds its
// allocations and has no task.
func (st *stage) idleReadyWorker() *worker {
	if st.idle == 0 {
		return nil
	}
	for _, w := range st.workers {
		if w.ready && !w.busy && !w.dead {
			return w
		}
	}
	return nil
}

func (st *stage) spawnWorker() {
	rt := st.ex.rt
	var w *worker
	if n := len(rt.workerPool); n > 0 {
		w = rt.workerPool[n-1]
		rt.workerPool[n-1] = nil
		rt.workerPool = rt.workerPool[:n-1]
		w.st = st
		w.dead = false
		rt.counters.ScratchPoolHits++
	} else {
		rt.counters.ScratchPoolMisses++
		w = &worker{st: st}
		w.taskDoneFn = w.taskDone
		w.timedOutFn = w.timedOut
		w.preemptFn = w.preempted
	}
	st.workers = append(st.workers, w)
	w.acquire()
}

// setState moves the worker between acquiring (neither flag), idle (ready)
// and busy, keeping its stage's idle and busy counts in step.
func (w *worker) setState(ready, busy bool) {
	st := w.st
	if w.busy {
		st.busy--
	} else if w.ready {
		st.idle--
	}
	w.ready, w.busy = ready, busy
	if busy {
		st.busy++
	} else if ready {
		st.idle++
	}
}

// acquire obtains the per-instance allocation (GPU first, then CPU for
// hybrid configs) through the cluster manager's queue. The worker is the
// grantee and its generation the token: the request is a record in the
// manager's queue, not a closure.
func (w *worker) acquire() {
	cfg := w.st.dec.Config
	if cfg.GPUs == 0 {
		w.acquireCPUs()
		return
	}
	if err := w.st.ex.rt.mgr.RequestGPUs(cfg.GPUs, cfg.GPUType, w, w.gen); err != nil {
		w.st.ex.finish(fmt.Errorf("core: %s worker GPUs: %w", w.st.cap, err))
	}
}

func (w *worker) acquireCPUs() {
	cores := w.st.dec.Config.CPUCores
	if cores == 0 {
		w.becomeReady()
		return
	}
	if err := w.st.ex.rt.mgr.RequestCPUs(cores, w, w.gen); err != nil {
		w.st.ex.finish(fmt.Errorf("core: %s worker CPUs: %w", w.st.cap, err))
	}
}

// GrantGPUs implements clustermgr.GPUGrantee. A grant issued under an earlier
// generation belongs to a worker that was destroyed since (and may have been
// reused): it is released, not adopted. The binding cannot have changed under
// a live worker — rebind destroys a stage's workers before it swaps the
// decision — so the core count is read here, not carried with the request.
func (w *worker) GrantGPUs(a *cluster.GPUAlloc, gen uint32) {
	if w.dead || w.gen != gen {
		a.Release()
		return
	}
	w.gpuAlloc = a
	a.OnPreempt = w.preemptFn
	w.acquireCPUs()
}

// GrantCPUs implements clustermgr.CPUGrantee, with GrantGPUs' stale rule.
func (w *worker) GrantCPUs(a *cluster.CPUAlloc, gen uint32) {
	if w.dead || w.gen != gen {
		a.Release()
		return
	}
	w.cpuAlloc = a
	a.OnPreempt = w.preemptFn
	w.becomeReady()
}

func (w *worker) becomeReady() {
	w.setState(true, false)
	w.st.pump()
}

func (w *worker) run(i int32) {
	st := w.st
	ex := st.ex
	d := st.dec
	node := ex.graph.NodeAt(int(i))
	if _, err := ex.rt.pl.ToolCallAt(ex.decomp, int(i), d.Implementation); err != nil {
		ex.finish(fmt.Errorf("core: tool-call generation for %s: %w", node.ID, err))
		return
	}
	ex.toolCalls++

	im := st.im
	if im == nil {
		ex.finish(fmt.Errorf("core: unknown implementation %q", d.Implementation))
		return
	}
	dur, err := im.Perf.LatencyS(node.Work, d.Config, ex.rt.cl.Catalog())
	if err != nil {
		ex.finish(fmt.Errorf("core: executing %s on %v: %w", node.ID, d.Config, err))
		return
	}
	w.setState(w.ready, true)
	w.current = i
	st.inflight++
	w.setIntensity(im.Perf.GPUIntensity, im.Perf.CPUIntensity)
	w.spanStart = ex.startSpan()
	w.doneAt = ex.rt.se.Now().Add(sim.Duration(dur))
	w.doneEv = *ex.rt.se.Schedule(w.doneAt, w.taskDoneFn)
	if rc := ex.rt.recovery; rc != nil && rc.StageTimeoutS > 0 {
		w.watchdogEv = *ex.rt.se.After(sim.Duration(rc.StageTimeoutS), w.timedOutFn)
	}
}

// taskDone completes the worker's in-flight task.
func (w *worker) taskDone() {
	st := w.st
	ex := st.ex
	node := w.current
	w.watchdogEv.Cancel()
	w.setIntensity(0, 0)
	ex.endSpan(node, w.spanStart)
	w.setState(w.ready, false)
	st.inflight--
	if ex.rt.recovery != nil {
		ex.rt.mgr.ReportOutcome(st.dec.Implementation, true)
	}
	st.afterTask(node)
	ex.completeNode(node)
	// The last node finishes the execution, and the owner may release the block
	// inside that call (Handle.Release): st is shut down by now, if it still is st.
	if !ex.done {
		st.pump()
	}
}

// stall pushes the in-flight task's completion out by d seconds — fault
// injection's hung stage call. Only the watchdog (if armed) can cut the
// stall short. Returns false when the worker is idle.
func (w *worker) stall(d float64) bool {
	if !w.busy || !w.doneEv.Pending() {
		return false
	}
	w.doneEv.Cancel()
	w.doneAt = w.doneAt.Add(sim.Duration(d))
	w.doneEv = *w.st.ex.rt.se.Schedule(w.doneAt, w.taskDoneFn)
	return true
}

// timedOut is the stage-timeout watchdog: the task ran longer than the
// policy allows, so it is cut short and routed through taskFailed — the
// worker itself is destroyed (a wedged process is not reused), and the
// retry respawns capacity through the normal pump path.
func (w *worker) timedOut() {
	if w.dead || !w.busy {
		return
	}
	st := w.st
	ex := st.ex
	node := w.current
	rc := ex.rt.recovery
	w.doneEv.Cancel()
	ex.endSpan(node, w.spanStart)
	w.setIntensity(0, 0)
	w.setState(w.ready, false)
	st.inflight--
	ex.rt.counters.StageTimeouts++
	w.destroy()
	st.taskFailed(node, &JobError{Code: CodeTaskFailed, Op: string(ex.graph.NodeAt(int(node)).ID),
		Err: fmt.Errorf("core: stage %s timed out after %.0fs", st.cap, rc.StageTimeoutS)})
	st.deferPump()
}

func (w *worker) setIntensity(gpu, cpu float64) {
	if w.gpuAlloc != nil && !w.gpuAlloc.Released() {
		w.gpuAlloc.SetIntensity(gpu)
	}
	if w.cpuAlloc != nil && !w.cpuAlloc.Released() {
		w.cpuAlloc.SetIntensity(cpu)
	}
}

// preempted handles loss of the worker's VM: the in-flight task (if any)
// returns to the stage queue and a replacement worker is spawned.
func (w *worker) preempted() {
	if w.dead {
		return
	}
	st := w.st
	ex := st.ex
	w.doneEv.Cancel()
	if w.busy {
		ex.endSpan(w.current, w.spanStart)
		if err := ex.tracker.FailAt(w.current); err != nil {
			panic(err)
		}
		// Re-enqueue: Fail returned it to ready; restart through the
		// tracker to keep state consistent.
		if err := ex.tracker.StartAt(w.current); err != nil {
			panic(err)
		}
		st.queue = append(st.queue, w.current)
		ex.retries++
		w.setState(w.ready, false)
		st.inflight--
	}
	w.destroy()
	st.deferPump()
}

// destroy releases the worker's allocations and removes it from the pool.
func (w *worker) destroy() {
	if w.dead {
		return
	}
	w.dead = true
	if w.busy {
		// Cancellation can destroy a busy worker; its in-flight task is
		// abandoned with it.
		w.st.inflight--
	}
	w.setState(false, false)
	w.doneEv.Cancel()
	w.watchdogEv.Cancel()
	if w.gpuAlloc != nil {
		w.gpuAlloc.OnPreempt = nil
		w.gpuAlloc.Release()
		w.gpuAlloc = nil
	}
	if w.cpuAlloc != nil {
		w.cpuAlloc.OnPreempt = nil
		w.cpuAlloc.Release()
		w.cpuAlloc = nil
	}
	w.gen++
	st := w.st
	// NOTE: the vacated tail slot keeps a stale pointer past len. Callers
	// (pump's idle drain) range over a pre-removal snapshot of this slice,
	// so the slot must stay a valid *worker; the pointee lives on in the
	// runtime's pool regardless.
	for i, other := range st.workers {
		if other == w {
			st.workers = append(st.workers[:i], st.workers[i+1:]...)
			break
		}
	}
	rt := st.ex.rt
	// A retired worker must not keep its last job alive from the free list.
	w.st = nil
	if !rt.cfg.noReuse && len(rt.workerPool) < poolCap {
		rt.workerPool = append(rt.workerPool, w)
	}
}

// shutdown force-releases everything at workflow end.
func (st *stage) shutdown() {
	st.shutdownFlag = true
	for len(st.workers) > 0 {
		st.workers[0].destroy()
	}
}

func metaInt(node *dag.Node, key string, def int) int {
	v, ok := node.Metadata.Get(key)
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return def
	}
	return n
}

func metaStr(node *dag.Node, key, def string) string {
	if v, ok := node.Metadata.Get(key); ok && v != "" {
		return v
	}
	return def
}
