// Package core is Murakkab's adaptive runtime — the paper's primary
// contribution (§3). It accepts declarative Jobs (Listing 2), lowers them to
// task DAGs via the planner, chooses implementations and resources via the
// optimizer, and executes the DAG against the cluster through the
// workflow-aware cluster manager:
//
//   - LLM-served capabilities run on shared serving engines with continuous
//     batching (intra-workflow parallelism falls out of the DAG frontier);
//   - other capabilities run on elastic worker pools that hold resources
//     only while work is queued — no resource stranding;
//   - the cluster manager sees the DAG (lookahead) and feeds stats back;
//   - preempted tasks retry; preempted engines rebuild.
package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/agents"
	"repro/internal/cluster"
	"repro/internal/clustermgr"
	"repro/internal/contentkey"
	"repro/internal/dag"
	"repro/internal/hardware"
	"repro/internal/llmsim"
	"repro/internal/optimizer"
	"repro/internal/planner"
	"repro/internal/profiles"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/vectordb"
	"repro/internal/workflow"
)

// Config wires a Runtime.
type Config struct {
	Engine  *sim.Engine
	Cluster *cluster.Cluster
	Library *agents.Library
	// ProfileRegistry scopes New's amortized profiling pass over Library
	// (§3.3(a)): cluster nodes pass their per-node registry so profile state
	// can replicate between nodes as content-keyed deltas. Nil uses the
	// process-wide default registry.
	ProfileRegistry *profiles.Registry
	// RebalancePeriod enables the manager's rebalancing loop when > 0.
	RebalancePeriod sim.Duration
	// CPUType prices CPU cores; defaults to the EPYC in the paper testbed.
	CPUType hardware.CPUType

	// The features are off at their zero values. Loop, when set, is the
	// sim.Loop driving Engine, and schedulers search plans off it on
	// PlanWorkers goroutines (0 = GOMAXPROCS; see plansearch.go); the library
	// and profile store must then not be mutated off the loop goroutine.
	// Reconfig, Recovery and SLO turn on reconfiguration, failure recovery
	// (with the manager's circuit breakers, unless the policy disables them)
	// and SLO tiers: see reconfig.go, faults.go and slo.go.
	Loop        *sim.Loop
	PlanWorkers int
	Reconfig    *ReconfigConfig
	Recovery    *FaultPolicy
	SLO         *SLOConfig

	// noReuse turns off the allocation-reuse fast paths: key interning (every
	// cache key and report label is a fresh string), the worker and LLM-task
	// scratch pools, the LLM request free list and the parked execution
	// blocks. Outputs are bit-identical either way; only this package's test
	// binary sets it (see export_test.go), for the reuse differentials.
	noReuse bool
}

// Runtime is the Murakkab runtime.
type Runtime struct {
	se    *sim.Engine
	cl    *cluster.Cluster
	mgr   *clustermgr.Manager
	lib   *agents.Library
	store *profiles.Store
	pl    *planner.Planner
	opt   *optimizer.Optimizer

	engineRefs map[string]int
	active     int
	nextExecID int
	// planCache memoizes optimizer plans across submissions (see
	// plancache.go); planCacheHits counts reuses. decompCache memoizes
	// planner decompositions the same way — the planner produces an
	// identical DAG for a structurally-identical job, and the graph is
	// frozen (read-only) so executions share it safely.
	planCache       map[string]*optimizer.Plan
	planCacheHits   int
	decompCache     map[string]*planner.Result
	decompCacheHits int
	// cfg is the Config New was given, CPUType defaulted. RebalancePeriod
	// runs the manager's loop only while workflows are active (a permanent
	// ticker would keep the simulation's event queue non-empty forever),
	// CPUType prices degradation candidates, noReuse gates the reuse fast
	// paths and NewScheduler wires the features. recovery is cfg.Recovery
	// with defaults applied (see faults.go).
	cfg      Config
	recovery *FaultPolicy

	// keyBuf is the reusable scratch every cache key and report label is
	// rendered into; keys interns the strings that must outlive the render
	// (nil under noReuse, in which case each is a fresh copy).
	// sortBuf is the reusable scratch for the string sets that are rendered
	// in sorted order (a job key's attribute names). capSnap is the
	// capacity class — the cluster's totals — and capKey its part of the plan
	// environment key, both taken once per capGen (see capacityClass). All
	// are engine-goroutine-only, like the runtime; capSnap is replaced, never
	// mutated, so the searches it was handed to keep reading it off-loop.
	keyBuf  []byte
	keys    *contentkey.Interner
	sortBuf []string
	capSnap cluster.Snapshot
	capKey  []byte
	capGen  uint64

	// workerPool and llmTaskPool recycle the per-task scratch of the two
	// dispatch paths (pool workers and LLM top-k barrier state). Stages are
	// per-execution, so pooling at the runtime level is what lets a
	// long-lived serving shard reach steady-state zero allocation across
	// jobs. Engine-goroutine-only; disabled by noReuse.
	workerPool  []*worker
	llmTaskPool []*llmTask
	// reqFree holds the LLM request records whose calls have completed: the
	// completion callback is the engine's last use of a request (see
	// llmsim.Request.OnComplete), so planQueryDone and llmTask.onComplete hand
	// it back and the next call takes it — a warm runtime allocates none.
	// reqSlab is the block fresh records are cut from when the list is empty
	// (one heap allocation per block, as sim.Engine cuts events); reqBlock is
	// its size, doubling from 8 to requestSlabSize so a runtime built for one
	// job does not pay for 64. The runtime owns them, not the engine: a
	// serving engine is released when the last job holding it finishes, so
	// engine-owned records cost every small job a whole block (+8 kB per
	// engine per job, measured). Nothing is reused under noReuse.
	reqFree  []*llmsim.Request
	reqSlab  []llmsim.Request
	reqBlock int
	// execFree holds the execution blocks their owners released after a clean
	// completion (see Execution.release); launch re-cuts the last one. It is as
	// long as the most jobs this runtime had live at once and goes with it.
	execFree []*Execution

	// counters is the shard's additive accounting (see Counters), incremented
	// in place by the scheduler, recovery, SLO and scratch-pool paths.
	// Engine-goroutine-only; Scheduler.Stats reads it from the same goroutine.
	counters Counters
}

// ParkedBlocks reports how many released execution blocks wait for a launch.
func (rt *Runtime) ParkedBlocks() int { return len(rt.execFree) }

// requestSlabSize is the most LLM request records one allocation block holds.
const requestSlabSize = 64

// newRequest returns a zeroed request record: one a completed call handed
// back, else the next of the runtime's slab.
func (rt *Runtime) newRequest() *llmsim.Request {
	if n := len(rt.reqFree); n > 0 {
		r := rt.reqFree[n-1]
		rt.reqFree = rt.reqFree[:n-1]
		return r
	}
	if len(rt.reqSlab) == 0 {
		rt.reqBlock = min(max(2*rt.reqBlock, 8), requestSlabSize)
		rt.reqSlab = make([]llmsim.Request, rt.reqBlock)
	}
	r := &rt.reqSlab[0]
	rt.reqSlab = rt.reqSlab[1:]
	return r
}

// releaseRequest takes back the record of a call that has completed. Only a
// request's own OnComplete may call it, once it has read what it needs of r.
func (rt *Runtime) releaseRequest(r *llmsim.Request) {
	if rt.cfg.noReuse || len(rt.reqFree) == poolCap {
		return
	}
	*r = llmsim.Request{}
	rt.reqFree = append(rt.reqFree, r)
}

// poolCap bounds the runtime's scratch free lists; beyond it, retired
// scratch is left to the GC (a burst should not pin its high-water mark
// forever).
const poolCap = 256

// New builds a runtime, profiling the library, and is the one check of its
// configuration: it returns an error, never panics.
func New(cfg Config) (*Runtime, error) {
	if cfg.Engine == nil || cfg.Cluster == nil || cfg.Library == nil {
		return nil, fmt.Errorf("core: Engine, Cluster and Library are required")
	}
	if cfg.SLO != nil {
		if err := cfg.SLO.Validate(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	if cfg.CPUType == "" {
		cfg.CPUType = hardware.EPYC7V12
	}
	// Amortized profiling (§3.3(a)): the library is profiled once per
	// distinct (catalog, library) content; runtimes receive copy-on-write
	// views of the shared store.
	store, err := agents.SharedProfilesIn(cfg.ProfileRegistry, cfg.Cluster.Catalog(), cfg.Library)
	if err != nil {
		return nil, fmt.Errorf("core: profiling library: %w", err)
	}
	mgr := clustermgr.New(cfg.Engine, cfg.Cluster)
	rt := &Runtime{
		se:          cfg.Engine,
		cl:          cfg.Cluster,
		mgr:         mgr,
		lib:         cfg.Library,
		store:       store,
		pl:          planner.New(cfg.Library),
		opt:         optimizer.New(cfg.Cluster.Catalog(), cfg.Library, store, cfg.CPUType),
		engineRefs:  map[string]int{},
		planCache:   map[string]*optimizer.Plan{},
		decompCache: map[string]*planner.Result{},
		cfg:         cfg,
	}
	if !cfg.noReuse {
		rt.keys = contentkey.NewInterner(0)
	}
	if cfg.Recovery != nil {
		p := cfg.Recovery.withDefaults()
		rt.recovery = &p
		if p.BreakerThreshold > 0 {
			mgr.EnableBreakers(p.BreakerThreshold, p.BreakerCooldownS)
		}
	}
	return rt, nil
}

// Manager exposes the cluster manager (for stats and tests).
func (rt *Runtime) Manager() *clustermgr.Manager { return rt.mgr }

// Profiles exposes the profile store.
func (rt *Runtime) Profiles() *profiles.Store { return rt.store }

// SubmitOptions tune one job execution.
type SubmitOptions struct {
	// Pinned forces per-capability configurations (the Figure 3 / Table 2
	// sweeps pin the STT configuration; the §4 setup pins engine sizes).
	Pinned map[string]optimizer.Pin
	// MaxPaths enables execution-path replication under MAX_QUALITY.
	MaxPaths int
	// RelaxFloor degrades the quality floor gracefully (default behaviour
	// when the floor is otherwise unsatisfiable stage-wise).
	RelaxFloor bool
	// KeepEngines leaves serving engines allocated after the job (for
	// multi-tenant runs where the next job reuses them).
	KeepEngines bool
	// SLOClass overrides the tenant's SLO tier for this job ("" = the
	// tenant mapping / default; ignored with SLO tiers disabled — see
	// Config.SLO). It does not affect planning, so it is not part
	// of the plan-cache or plan-search key.
	SLOClass string
}

// Execution tracks one submitted job. It is the head of the job's one block
// of state: the tracker, the tracer and the report sit in it by value, and
// launch cuts everything whose size the frozen graph and the plan decide —
// tracker cells, span storage, one stage per capability with its queue and
// worker list, the ready buffer — from four arrays made beside it, one per
// element type (Go cannot carve differently-typed, pointer-carrying arrays
// from a single allocation). The count does not depend on the graph: a job
// costs the same five allocations with two stages or ten, 13 nodes or 240,
// and everything in the block is addressed by node index or capability slot.
// On a runtime whose jobs' owners release them it costs none: launch re-cuts a
// parked block, growing only an array the job does not fit in.
type Execution struct {
	rt     *Runtime
	id     int
	job    workflow.Job
	opts   SubmitOptions
	plan   *optimizer.Plan
	decomp *planner.Result
	// graph is decomp.Graph: node i of it is cell i of the tracker, and
	// graph.CapSlot(i) the index of the stage that runs it.
	graph     *dag.Graph
	tracker   dag.Tracker
	tracer    telemetry.Tracer
	rep       report.Report
	startedAt sim.Time
	planLatS  float64
	// stages holds one stage per distinct capability of the graph, in the
	// graph's slot order — capabilities sorted — so walking it (engine
	// bring-up, shutdown, fault victims) is deterministic by construction.
	stages []stage
	done   bool
	err    error
	// owner is the scheduler handle this execution runs for (nil for a
	// direct Runtime.Submit): finish settles it and the attempt log feeds its
	// observer through this pointer.
	owner     *Handle
	toolCalls int
	retries   int
	// heldEngines records the serving-engine refs this execution holds, in
	// acquisition order (spec names; one entry per engine-served decision).
	// Explicit bookkeeping — rather than re-deriving the set from the plan at
	// finish — is what lets reconfiguration swap an engine-served decision
	// mid-flight without leaking or double-releasing refs. heldBuf is its
	// storage: one slot per LLM capability there is.
	heldEngines []string
	heldBuf     [3]string
	// reconfigs counts adopted mid-flight re-plans.
	reconfigs int
	// readyBuf is the frontier scratch dispatchReady/completeNode reuse so
	// per-task dispatch never allocates a ready slice.
	readyBuf []int32
	// planQueries counts the planning queries still in flight at the
	// orchestrator engine (see chargePlanning).
	planQueries int
	// embedded lists the embedding nodes that completed, in completion
	// order; docs is the index built over their documents, the last time
	// someone asked for it (see Documents).
	embedded []int32
	docs     *vectordb.Index
	// ints, spans and slots are the block's arrays at full length (stages is
	// the fourth) and the method values bind the head, not the job: all a parked
	// block keeps. unclean marks a job that left the nominal path (a failed
	// task, an adopted re-plan, a degraded admission): its block is never parked.
	ints            []int32
	spans           []telemetry.NodeSpan
	slots           []*worker
	planQueryDoneFn func(*llmsim.Request)
	dispatchReadyFn func()
	unclean         bool

	// Failure-recovery state (all nil/zero unless the runtime has recovery
	// enabled; see faults.go): attempt counts per task (by node index),
	// failure counts per capability, capabilities already degraded, pending
	// retry events (canceled at finish so no retry fires on a finished job),
	// the seeded jitter stream, the job-deadline timer and the bounded attempt
	// history.
	attempts   map[int32]int
	capFails   map[string]int
	degraded   map[string]bool
	retryEvs   map[sim.Event]bool
	recRng     *rand.Rand
	deadlineEv sim.Event
	attemptLog []AttemptRecord
}

// embeddingDim is the dimension of the vectors embedding tasks produce.
const embeddingDim = 64

// Documents returns what the job's embedding tasks have produced so far — the
// §4 setup's VectorDB of scene summaries — as a searchable index, documents in
// task-completion order. A task only notes that it completed; its document
// (text, vector, the store's validity checks) is made here, the first time
// someone asks, and again only if more tasks completed since. The documents
// belong to the execution and go when it does: no serving response carries
// them, so a long-lived shard neither computes nor keeps them.
func (ex *Execution) Documents() *vectordb.Index {
	if ex.docs != nil && ex.docs.Len() == len(ex.embedded) {
		return ex.docs
	}
	docs := make([]vectordb.Doc, len(ex.embedded))
	for k, i := range ex.embedded {
		node := ex.graph.NodeAt(int(i))
		text := "summary of " + metaStr(node, "video", metaStr(node, "doc", "input")) +
			" scene " + metaStr(node, "scene", "-")
		docs[k] = vectordb.Doc{ID: string(node.ID), Vector: vectordb.Embed(text, embeddingDim), Text: text}
	}
	ix, err := vectordb.NewIndex(embeddingDim, docs)
	if err != nil {
		panic(err)
	}
	ex.docs = ix
	return ix
}

// Done reports completion.
func (ex *Execution) Done() bool { return ex.done }

// Err returns the terminal error, if any.
func (ex *Execution) Err() error { return ex.err }

// Report returns the final report (nil until Done).
func (ex *Execution) Report() *report.Report {
	if !ex.done {
		return nil
	}
	return &ex.rep
}

// Plan returns the optimizer's plan.
func (ex *Execution) Plan() *optimizer.Plan { return ex.plan }

// Decomposition returns the planner result (DAG, ReAct trace, queries).
func (ex *Execution) Decomposition() *planner.Result { return ex.decomp }

// ToolCalls returns the number of generated (and validated) tool calls.
func (ex *Execution) ToolCalls() int { return ex.toolCalls }

// Retries returns tasks re-executed after failures (preemptions).
func (ex *Execution) Retries() int { return ex.retries }

// Reconfigs returns how many mid-flight re-plans this execution adopted.
func (ex *Execution) Reconfigs() int { return ex.reconfigs }

// planOptions maps a job plus its submit options onto the optimizer's search
// options — the single definition both the inline path and the off-loop plan
// searchers use, so their searches are keyed and parameterized identically.
func planOptions(job workflow.Job, opts SubmitOptions) optimizer.Options {
	return optimizer.Options{
		Constraint: job.Constraint,
		MinQuality: job.MinQuality,
		RelaxFloor: opts.RelaxFloor,
		Pinned:     opts.Pinned,
		MaxPaths:   opts.MaxPaths,
	}
}

// Submit plans and launches a job. Errors in planning or optimization are
// returned synchronously; execution then proceeds when the simulation
// engine runs.
func (rt *Runtime) Submit(job workflow.Job, opts SubmitOptions) (*Execution, error) {
	decomp, err := rt.decompose(job)
	if err != nil {
		return nil, err
	}
	// Plans are memoized: the load sweep's structurally-identical jobs reuse
	// the first job's configuration search instead of repeating it per
	// submit (§3.3(c) amortized).
	plan, err := rt.planFor(decomp.Graph, planOptions(job, opts))
	if err != nil {
		return nil, err
	}
	return rt.launch(job, opts, decomp, plan)
}

// launch starts execution of an already-planned job: the inline Submit path
// lands here after decomposing and planning on the engine goroutine, and the
// scheduler's optimistic-commit path lands here directly with a plan searched
// off-loop against a validated snapshot.
func (rt *Runtime) launch(job workflow.Job, opts SubmitOptions, decomp *planner.Result, plan *optimizer.Plan) (*Execution, error) {
	rt.nextExecID++
	g := decomp.Graph
	nodes := g.Len()
	// A parked head is zero but for its arrays (release), so it is filled in as
	// a fresh one is.
	var ex *Execution
	if n := len(rt.execFree); n > 0 {
		ex, rt.execFree[n-1] = rt.execFree[n-1], nil
		rt.execFree = rt.execFree[:n-1]
	} else {
		ex = &Execution{}
	}
	ex.rt, ex.id, ex.done, ex.startedAt = rt, rt.nextExecID, false, rt.se.Now()
	ex.job, ex.opts, ex.plan, ex.decomp, ex.graph = job, opts, plan, decomp, g
	ex.stages = sized(ex.stages, g.CapSlots())
	ex.heldEngines = ex.heldBuf[:0]
	// The block's arrays are sized from the job: a stage can have as many
	// tasks queued as the graph has nodes of its capability and runs at most
	// its parallelism of them side by side on workers, and a task leaves one
	// span.
	for i := range ex.stages {
		capability := g.SlotCapability(i)
		ex.stages[i].bind(ex, capability, plan.Decisions[capability])
	}
	for i := 0; i < nodes; i++ {
		ex.stages[g.CapSlot(i)].tasks++
	}
	workers, embeds := 0, 0
	for i := range ex.stages {
		st := &ex.stages[i]
		if !st.isLLM {
			workers += st.width()
		}
		if st.embeds {
			embeds = st.tasks
		}
	}
	ex.ints = sized(ex.ints, dag.TrackerCells(g)+2*nodes+embeds)
	ints := ex.ints
	cut := func(n int) []int32 {
		part := ints[:n:n]
		ints = ints[n:]
		return part
	}
	ex.tracker.Init(g, cut(dag.TrackerCells(g)))
	ex.readyBuf = cut(nodes)[:0]
	ex.embedded = cut(embeds)[:0]
	ex.spans = sized(ex.spans, nodes)
	ex.tracer.Init(ex, ex.spans[:nodes:nodes])
	ex.slots = sized(ex.slots, workers)
	pool := ex.slots
	for i := range ex.stages {
		st := &ex.stages[i]
		st.queue = cut(st.tasks)[:0]
		if !st.isLLM {
			st.workers, pool = pool[:0:st.width()], pool[st.width():]
		}
	}
	rt.keyBuf = append(append(rt.keyBuf[:0], "murakkab/"...), job.Constraint.String()...)
	// Decision labels are the same for every job sharing a cached plan: the
	// plan renders them once and the reports share the map read-only (a
	// reconfigured execution copies it before writing, see adoptPlan).
	ex.rep = report.Report{
		Name:      rt.internKey(rt.keyBuf),
		Tracer:    &ex.tracer,
		Quality:   plan.EstQuality,
		Decisions: plan.Labels(),
	}

	// Workflow-aware cluster management: the manager sees the DAG.
	rt.mgr.RegisterWorkflow(&ex.tracker)
	rt.active++
	if rt.cfg.RebalancePeriod > 0 && !rt.mgr.RebalancingEnabled() {
		rt.mgr.EnableRebalancing(rt.cfg.RebalancePeriod)
	}

	// Bring up serving engines for the LLM capabilities, then charge the
	// planning queries against the orchestrator engine, then start the DAG.
	if err := ex.ensureEngines(); err != nil {
		rt.mgr.UnregisterWorkflow(&ex.tracker)
		rt.active--
		return nil, err
	}
	ex.initRecovery()
	ex.chargePlanning()
	return ex, nil
}

// sized returns s at length n, zeroed: in its own array when that is large enough.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// release parks a finished execution's block for launch to re-cut; its caller
// is the one owner of ex, finished with it (see Handle.Release). Safety is by
// restriction, not by generations: only a clean completion is parked — no
// error, every node done, no stage with a task in flight, a worker or a pump
// ever deferred, nothing that set unclean — because then no LLM task, worker
// event, planning query, retry or deadline event, fault victim list, tracker
// registration or scheduler set can still name the block. Every other ending is
// left to the collector. A parked block keeps nothing of its job — the head is
// zeroed but for its arrays and method values, the arrays that hold pointers
// are cleared — and stays done, as a callback that outlived the job would find.
func (ex *Execution) release() {
	if ex.rt.cfg.noReuse || !ex.done || ex.err != nil || ex.unclean || !ex.tracker.Done() {
		return
	}
	for i := range ex.stages {
		if st := &ex.stages[i]; st.inflight != 0 || len(st.workers) != 0 || st.pumpFn != nil {
			return
		}
	}
	rt := ex.rt
	clear(ex.stages[:cap(ex.stages)])
	clear(ex.slots[:cap(ex.slots)])
	*ex = Execution{done: true, stages: ex.stages, ints: ex.ints, spans: ex.spans, slots: ex.slots,
		planQueryDoneFn: ex.planQueryDoneFn, dispatchReadyFn: ex.dispatchReadyFn}
	if parkHook != nil {
		parkHook(ex)
	}
	rt.execFree = append(rt.execFree, ex)
}

// parkHook, when a test sets it, sees every block release parks, and poisons its
// arrays: launch relies on the head alone being as release left it.
var parkHook func(*Execution)

// engineSpecFor maps an LLM implementation to its serving ModelSpec.
func engineSpecFor(impl string) (llmsim.ModelSpec, bool) {
	switch impl {
	case agents.ImplNVLM:
		return llmsim.NVLMText(), true
	case "nvlm-d-72b-qa":
		spec := llmsim.NVLMText()
		spec.Name = "nvlm-d-72b-qa"
		return spec, true
	case agents.ImplLlama70B:
		spec := llmsim.NVLMText()
		spec.Name = agents.ImplLlama70B
		return spec, true
	case agents.ImplLlama8B:
		return llmsim.Llama8B(), true
	case agents.ImplNVLMEmbed:
		return llmsim.NVLMEmbed(), true
	default:
		return llmsim.ModelSpec{}, false
	}
}

// engineServed reports whether a decision executes on a shared serving
// engine: the capability must be LLM-served AND the chosen implementation
// an actual LLM. A capability like embedding can also be served by a small
// CPU model (minilm), which then runs on a plain worker pool.
func (ex *Execution) engineServed(cap string, d optimizer.Decision) bool {
	if !agents.LLMCapabilities()[agents.Capability(cap)] {
		return false
	}
	im, ok := ex.rt.lib.Lookup(d.Implementation)
	return ok && im.Kind == agents.KindLLM
}

// ensureEngines takes a ref on the serving engine behind every engine-served
// stage, in slot order: engine creation must not depend on map iteration
// order, or device placement (and with it float summation order in the energy
// integrals) becomes nondeterministic.
func (ex *Execution) ensureEngines() error {
	for i := range ex.stages {
		st := &ex.stages[i]
		if !st.isLLM {
			continue
		}
		name, err := ex.acquireEngineRef(st.cap, st.dec, "planned")
		if err != nil {
			return err
		}
		ex.heldEngines = append(ex.heldEngines, name)
	}
	return nil
}

// acquireEngineRef ensures the serving engine behind an engine-served
// decision and takes one ref on it, returning the engine's spec name. It is
// the single definition of the engine-acquisition invariants (spec lookup,
// GPU validation, scaling envelope, ref bookkeeping) shared by admission
// (ensureEngines) and mid-flight reconfiguration (adoptPlan); verb names the
// planning step for error messages.
func (ex *Execution) acquireEngineRef(cap string, d optimizer.Decision, verb string) (string, error) {
	spec, ok := engineSpecFor(d.Implementation)
	if !ok {
		return "", fmt.Errorf("core: no serving spec for LLM implementation %q", d.Implementation)
	}
	if d.Config.GPUs == 0 {
		return "", fmt.Errorf("core: LLM capability %q %s without GPUs (%v)", cap, verb, d.Config)
	}
	im, _ := ex.rt.lib.Lookup(d.Implementation)
	h, err := ex.rt.mgr.EnsureEngine(cap, spec, d.Config.GPUs, d.Config.GPUType,
		im.Perf.MinGPUs, im.Perf.MaxGPUs, d.Pinned && !d.AllowScaling)
	if err != nil {
		return "", err
	}
	ex.rt.engineRefs[h.Spec.Name]++
	return h.Spec.Name, nil
}

// chargePlanning submits the planner's LLM queries to the orchestrator
// engine (the summarization engine when present) and starts the DAG when they
// complete. §3.3(b): these are short-input/short-output queries.
func (ex *Execution) chargePlanning() {
	rt := ex.rt
	h, ok := rt.mgr.EngineForCapability(string(agents.CapSummarization))
	if !ok {
		// No orchestrator engine in this workflow; charge a fixed small
		// remote-call latency instead.
		rt.se.After(0.5, func() {
			ex.planLatS = 0.5
			ex.dispatchReady()
		})
		return
	}
	ex.planQueries = len(ex.decomp.Queries)
	if ex.planQueries == 0 {
		if ex.dispatchReadyFn == nil {
			ex.dispatchReadyFn = ex.dispatchReady
		}
		rt.se.Defer(ex.dispatchReadyFn)
		return
	}
	// One completion callback shared by every planning query, materialized once
	// per Execution object and kept across release, as worker.taskDoneFn is;
	// request IDs repeat across jobs of a shape, so they intern.
	if ex.planQueryDoneFn == nil {
		ex.planQueryDoneFn = ex.planQueryDone
	}
	for i, q := range ex.decomp.Queries {
		rt.keyBuf = append(rt.keyBuf[:0], "plan-"...)
		rt.keyBuf = append(rt.keyBuf, q.Purpose...)
		rt.keyBuf = append(rt.keyBuf, '-')
		rt.keyBuf = strconv.AppendInt(rt.keyBuf, int64(i), 10)
		r := rt.newRequest()
		r.ID = rt.internKey(rt.keyBuf)
		r.PromptTokens, r.OutputTokens = q.PromptTokens, q.OutputTokens
		r.OnComplete = ex.planQueryDoneFn
		h.Engine.Submit(r)
	}
}

// planQueryDone counts one planning query off; the last one starts the DAG.
func (ex *Execution) planQueryDone(r *llmsim.Request) {
	ex.rt.releaseRequest(r)
	ex.planQueries--
	if ex.planQueries == 0 {
		ex.planLatS = ex.rt.se.Now().Sub(ex.startedAt).Seconds()
		ex.dispatchReady()
	}
}

// Cancel terminates the execution: stages shut down, workers release their
// allocations and the report is finalized over the truncated run. In-flight
// engine requests drain harmlessly (their completions are ignored). Cancel
// reports whether the execution was still live.
func (ex *Execution) Cancel() bool {
	if ex.done {
		return false
	}
	ex.finish(ErrCanceled)
	return true
}

// startSpan opens the span of a task starting now and returns its start time,
// which the task keeps (worker.spanStart, llmTask.spanStart) until endSpan.
func (ex *Execution) startSpan() float64 {
	ex.tracer.StartNode()
	return ex.rt.se.Now().Seconds()
}

// endSpan closes, now, the span node's task opened at start.
func (ex *Execution) endSpan(node int32, start float64) {
	ex.tracer.EndNode(node, start, ex.rt.se.Now().Seconds())
}

// SpanName implements telemetry.SpanNamer: a span is recorded by node index
// and gets its Figure 3 track and its label from the graph when the report's
// tracer is read.
func (ex *Execution) SpanName(node int32) (track, label string) {
	n := ex.graph.NodeAt(int(node))
	return trackName(n.Capability), string(n.ID)
}

// dispatchReady feeds every ready DAG node to its capability stage.
func (ex *Execution) dispatchReady() {
	if ex.done {
		// Canceled (or failed) while the planning queries were in flight.
		return
	}
	ex.readyBuf = ex.tracker.AppendReadyAt(ex.readyBuf[:0])
	ex.startAll(ex.readyBuf)
}

// startAll marks the ready nodes running and queues each at its stage.
func (ex *Execution) startAll(ready []int32) {
	for _, i := range ready {
		if err := ex.tracker.StartAt(i); err != nil {
			panic(err)
		}
		ex.stages[ex.graph.CapSlot(int(i))].enqueue(i)
	}
}

// completeNode marks node i done and dispatches newly-ready successors.
func (ex *Execution) completeNode(i int32) {
	if ex.done {
		// A canceled execution's in-flight engine requests still complete;
		// their results are dropped.
		return
	}
	newly, err := ex.tracker.CompleteAt(i, ex.readyBuf[:0])
	ex.readyBuf = newly
	if err != nil {
		panic(err)
	}
	ex.startAll(newly)
	if ex.tracker.Done() {
		ex.finish(nil)
	}
}

func (ex *Execution) finish(err error) {
	if ex.done {
		return
	}
	ex.done = true
	ex.err = err
	ex.cancelRecovery()
	ex.rt.mgr.UnregisterWorkflow(&ex.tracker)
	ex.rt.active--
	if ex.rt.active == 0 && ex.rt.cfg.RebalancePeriod > 0 {
		ex.rt.mgr.StopRebalancing()
	}
	// Slot order: on a cancel or a failure the stages still hold workers, and
	// the order their allocations are released in decides who is granted next.
	for i := range ex.stages {
		ex.stages[i].shutdown()
	}
	if !ex.opts.KeepEngines {
		ex.rt.releaseEngineRefs(ex)
	}
	ex.rep.StartS = ex.startedAt.Seconds()
	ex.rep.MakespanS = ex.rt.se.Now().Sub(ex.startedAt).Seconds()
	ex.rep.TasksCompleted = ex.tracker.CompletedCount()
	if ex.rep.MakespanS > 0 {
		ex.rep.PlanningOverheadFrac = ex.planLatS / ex.rep.MakespanS
	}
	// A window behind the retention watermark means the serving layer's
	// compaction policy violated its invariant (never compact past a live
	// job's start); surface it as the job's terminal error rather than
	// shipping a report silently zeroed over missing history.
	if ferr := report.Finalize(&ex.rep, ex.rt.cl); ferr != nil && ex.err == nil {
		ex.err = ferr
	}
	if h := ex.owner; h != nil {
		h.s.settle(h, ex.err)
	}
}

func (rt *Runtime) releaseEngineRefs(ex *Execution) {
	for _, name := range ex.heldEngines {
		rt.releaseEngineRef(name)
	}
	ex.heldEngines = nil
}

// releaseEngineRef drops one ref on a serving engine, draining and releasing
// it when this was the last.
func (rt *Runtime) releaseEngineRef(name string) {
	rt.engineRefs[name]--
	if rt.engineRefs[name] == 0 {
		if h, ok := rt.mgr.Engine(name); ok {
			// Drain then release: in-flight requests (none, if the DAG
			// is done) finish first.
			h.Engine.OnDrained(func() { rt.mgr.ReleaseEngine(name) })
		}
	}
}

// sortedCaps returns decision keys in sorted order: whatever walks a plan's
// decisions must not depend on map iteration order, or engine placement and
// float summation order become nondeterministic.
func sortedCaps(m map[string]optimizer.Decision) []string {
	caps := make([]string, 0, len(m))
	for k := range m {
		caps = append(caps, k)
	}
	sort.Strings(caps)
	return caps
}

// trackName maps capabilities to Figure 3's track labels.
func trackName(capability string) string {
	switch agents.Capability(capability) {
	case agents.CapFrameExtraction:
		return "Frame Extraction"
	case agents.CapSpeechToText:
		return "Speech-to-Text"
	case agents.CapObjectDetection:
		return "Object Detection"
	case agents.CapSummarization:
		return "LLM (Text)"
	case agents.CapEmbedding:
		return "LLM (Embeddings)"
	case agents.CapQA:
		return "LLM (QA)"
	default:
		return capability
	}
}
