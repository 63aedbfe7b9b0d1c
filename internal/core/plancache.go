package core

import (
	"sort"

	"repro/internal/cluster"
	"repro/internal/contentkey"
	"repro/internal/dag"
	"repro/internal/hardware"
	"repro/internal/optimizer"
	"repro/internal/planner"
	"repro/internal/workflow"
)

// The plan cache memoizes optimizer.Plan results. A load sweep submits
// hundreds of structurally-identical jobs; without the cache each submit
// re-walks every (implementation, config, parallelism, paths) option of every
// capability — one pass keeping the best so far, a few microseconds, but
// still the largest part of a cold admission after decomposition. The key
// captures everything Plan reads:
//
//   - the DAG's (capability, work) content — the only node fields demands()
//     consumes;
//   - the search options (constraint, quality floor, relaxation, pins, max
//     execution paths);
//   - the capacity class: total CPU cores and total GPUs per type, the only
//     snapshot fields the optimizer consumes. A capacity change (VM added,
//     cloud resized) therefore changes the key, which is the invalidation;
//   - the profile-store and library generations, so registering an
//     implementation or recalibrating a profile can never serve a stale plan.
//
// Plans are immutable after construction (the runtime and stages only read
// Decisions), so cached plans are shared across executions by pointer.
//
// Keys are built into the runtime's reusable []byte scratch and probed with
// the no-alloc m[string(buf)] pattern; a key string is only materialized — via
// the runtime's interner, once per distinct content — when it must outlive
// the probe (a cache insert, or the job key the scheduler holds across an
// off-loop search).

// planCacheLimit bounds memory: the cache holds at most this many plans and
// resets wholesale when full (distinct keys are few in practice — job shapes
// × capacity classes — so a reset effectively never fires mid-sweep).
const planCacheLimit = 1024

// appendPlanKey renders the plan-cache key for g against the live cluster:
// the DAG's content — Graph.AppendContent, which a frozen graph renders once,
// so a warm admission copies the bytes instead of formatting every node
// again — then the plan environment.
func (rt *Runtime) appendPlanKey(key []byte, g *dag.Graph, opts optimizer.Options) []byte {
	return rt.appendPlanEnv(g.AppendContent(key), opts)
}

// appendPlanEnv renders everything a plan depends on besides the DAG itself:
// the search options, the live capacity class (served from capacityClass, not
// a fresh snapshot) and the store/library generations. The plan-cache key
// prefixes it with the DAG's content; appendSearchKey prefixes it with the
// job's content key (which determines the DAG, so the two keys discriminate
// identically).
func (rt *Runtime) appendPlanEnv(key []byte, opts optimizer.Options) []byte {
	_, capKey := rt.capacityClass()
	key = append(appendPlanOptions(key, opts), capKey...)
	return appendGens(key, rt.store.Gen(), rt.lib.Gen())
}

// capacityClass returns the live cluster's capacity class, memoized on
// CapacityGen: a snapshot holding the totals and nothing else — all the
// optimizer and the degradation walks read of one — and appendCapacity of it.
// The totals move only with the capacity class, while Cluster.Snapshot is
// memoized on the state generation, which every allocation moves: taking a
// fresh one per search (or per rendered key) re-walks the fleet and rebuilds
// its two maps to arrive at these same two totals.
func (rt *Runtime) capacityClass() (cluster.Snapshot, []byte) {
	if g := rt.cl.CapacityGen(); rt.capKey == nil || rt.capGen != g {
		s := rt.cl.Snapshot()
		rt.capSnap = cluster.Snapshot{TotalGPUs: s.TotalGPUs, TotalCPUCores: s.TotalCPUCores}
		rt.capKey = appendCapacity(rt.capKey[:0], rt.capSnap)
		rt.capGen = g
	}
	return rt.capSnap, rt.capKey
}

func appendPlanOptions(key []byte, opts optimizer.Options) []byte {
	key = append(key, "|c"...)
	key = contentkey.AppendInt(key, int(opts.Constraint))
	key = append(key, "|q"...)
	key = contentkey.AppendFloat(key, opts.MinQuality)
	if opts.RelaxFloor {
		key = append(key, "|relax"...)
	}
	key = append(key, "|p"...)
	key = contentkey.AppendInt(key, opts.MaxPaths)
	if len(opts.Pinned) > 0 {
		caps := make([]string, 0, len(opts.Pinned))
		for c := range opts.Pinned {
			caps = append(caps, c)
		}
		sort.Strings(caps)
		for _, c := range caps {
			pin := opts.Pinned[c]
			key = append(key, "|pin"...)
			key = contentkey.AppendString(key, c)
			key = contentkey.AppendString(key, pin.Implementation)
			key = contentkey.AppendString(key, pin.Config.String())
			key = contentkey.AppendInt(key, pin.Parallelism)
			if pin.ExecutionPaths > 1 {
				key = append(key, "+ep"...)
				key = contentkey.AppendInt(key, pin.ExecutionPaths)
			}
			if pin.AllowScaling {
				key = append(key, "+scale"...)
			}
		}
	}
	return key
}

// appendCapacity renders the capacity class: total CPU cores and total GPUs
// per type, the only snapshot fields the optimizer consumes.
func appendCapacity(key []byte, snap cluster.Snapshot) []byte {
	key = append(key, "|cores"...)
	key = contentkey.AppendInt(key, snap.TotalCPUCores)
	switch len(snap.TotalGPUs) {
	case 0:
	case 1:
		for t, n := range snap.TotalGPUs {
			key = appendGPU(key, string(t), n)
		}
	default:
		types := make([]string, 0, len(snap.TotalGPUs))
		for t := range snap.TotalGPUs {
			types = append(types, string(t))
		}
		sort.Strings(types)
		for _, t := range types {
			key = appendGPU(key, t, snap.TotalGPUs[hardware.GPUType(t)])
		}
	}
	return key
}

func appendGens(key []byte, storeGen, libGen int) []byte {
	key = append(key, "|sg"...)
	key = contentkey.AppendInt(key, storeGen)
	key = append(key, "|lg"...)
	return contentkey.AppendInt(key, libGen)
}

func appendGPU(key []byte, t string, n int) []byte {
	key = append(key, "|gpu"...)
	key = contentkey.AppendString(key, t)
	return contentkey.AppendInt(key, n)
}

// appendSearchKey renders the singleflight key for off-loop plan search: the
// job's content key plus the live plan environment. Two submissions with
// equal search keys are guaranteed an identical decomposition (jobKey
// determines the DAG) and an identical plan (appendPlanEnv covers every other
// Plan input), so a burst of like jobs shares one search.
func (rt *Runtime) appendSearchKey(key []byte, jobKey string, opts optimizer.Options) []byte {
	return rt.appendPlanEnv(append(key, jobKey...), opts)
}

// planFor returns the cached plan for g under the live cluster's capacity
// class, or searches one against that class and caches it.
func (rt *Runtime) planFor(g *dag.Graph, opts optimizer.Options) (*optimizer.Plan, error) {
	rt.keyBuf = rt.appendPlanKey(rt.keyBuf[:0], g, opts)
	if p, ok := rt.planCache[string(rt.keyBuf)]; ok {
		rt.planCacheHits++
		return p, nil
	}
	snap, _ := rt.capacityClass()
	p, err := rt.opt.Plan(g, snap, opts)
	if err != nil {
		return nil, err
	}
	if len(rt.planCache) >= planCacheLimit {
		rt.planCache = make(map[string]*optimizer.Plan)
	}
	rt.planCache[rt.keys.Intern(rt.keyBuf)] = p
	return p, nil
}

// PlanCacheHits reports how many submissions reused a cached plan (for
// overhead accounting and tests).
func (rt *Runtime) PlanCacheHits() int { return rt.planCacheHits }

// appendJobKey renders a job's full content deterministically for the
// decomposition cache. Free-text fields (description, tasks, input names,
// attr keys) are length-prefixed and every numeric value is
// semicolon-terminated (';' cannot occur in a formatted float), so the
// encoding is injective — no crafted job content can collide with another
// job's key. Attribute maps are emitted in sorted key order; attrs is the
// caller's scratch for that sort.
func appendJobKey(key []byte, attrs *[]string, job workflow.Job, libGen int) []byte {
	key = contentkey.AppendString(key, job.Description)
	key = append(key, "|c"...)
	key = contentkey.AppendInt(key, int(job.Constraint))
	key = append(key, "|q"...)
	key = contentkey.AppendFloat(key, job.MinQuality)
	for _, t := range job.Tasks {
		key = append(key, "|t"...)
		key = contentkey.AppendString(key, t)
	}
	for _, in := range job.Inputs {
		key = append(key, "|i"...)
		key = contentkey.AppendString(key, in.Name)
		key = contentkey.AppendString(key, string(in.Kind))
		if len(in.Attrs) > 0 {
			keys := (*attrs)[:0]
			for k := range in.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				key = contentkey.AppendString(key, k)
				key = contentkey.AppendFloat(key, in.Attrs[k])
			}
			*attrs = keys
		}
	}
	key = append(key, "|lg"...)
	return contentkey.AppendInt(key, libGen)
}

// jobKey is the string form of appendJobKey (tests and cold paths).
func jobKey(job workflow.Job, libGen int) string {
	return string(appendJobKey(make([]byte, 0, 128), new([]string), job, libGen))
}

// decompose memoizes planner decompositions per job content: the planner is
// deterministic and its output frozen, so structurally-identical jobs (the
// load sweep's bread and butter) share one DAG; each execution still gets
// its own Tracker. The library generation is in the key so registering a new
// implementation re-plans.
func (rt *Runtime) decompose(job workflow.Job) (*planner.Result, error) {
	rt.keyBuf = appendJobKey(rt.keyBuf[:0], &rt.sortBuf, job, rt.lib.Gen())
	if r, ok := rt.decompCache[string(rt.keyBuf)]; ok {
		rt.decompCacheHits++
		return r, nil
	}
	r, err := rt.pl.Decompose(job)
	if err != nil {
		return nil, err
	}
	if len(rt.decompCache) >= planCacheLimit {
		rt.decompCache = make(map[string]*planner.Result)
	}
	rt.decompCache[rt.keys.Intern(rt.keyBuf)] = r
	return r, nil
}

// DecompCacheHits reports how many submissions reused a cached
// decomposition.
func (rt *Runtime) DecompCacheHits() int { return rt.decompCacheHits }

// probePrepared checks, without planning, whether the runtime's caches
// already hold both the decomposition and the plan for a submission — the
// fast path that lets the scheduler skip dispatching an off-loop search for
// job shapes the shard has seen before. It returns the job's content key
// (always — the scheduler holds it across an async search, so it is
// materialized through the interner) and the prepared pair: complete on a
// double hit, the decomposition alone when only the plan half missed, zero
// otherwise. Runs on the engine goroutine.
func (rt *Runtime) probePrepared(job workflow.Job, opts SubmitOptions) (string, preparedPlan) {
	rt.keyBuf = appendJobKey(rt.keyBuf[:0], &rt.sortBuf, job, rt.lib.Gen())
	jk := rt.keys.Intern(rt.keyBuf)
	r, ok := rt.decompCache[jk]
	if !ok {
		return jk, preparedPlan{}
	}
	rt.keyBuf = rt.appendPlanKey(rt.keyBuf[:0], r.Graph, planOptions(job, opts))
	p, ok := rt.planCache[string(rt.keyBuf)]
	if !ok {
		// Half a hit: hand the cached decomposition back so a dispatched
		// search can skip re-decomposing the (frozen, immutable) DAG.
		return jk, preparedPlan{decomp: r}
	}
	rt.decompCacheHits++
	rt.planCacheHits++
	return jk, rt.stamp(r, p)
}

// stamp pairs a decomposition and plan with the live generations they are
// valid under.
func (rt *Runtime) stamp(decomp *planner.Result, plan *optimizer.Plan) preparedPlan {
	return preparedPlan{
		decomp:   decomp,
		plan:     plan,
		capGen:   rt.cl.CapacityGen(),
		storeGen: rt.store.Gen(),
		libGen:   rt.lib.Gen(),
	}
}

// adoptPrepared installs an off-loop search result into the shared caches and
// returns the canonical pair to execute. It must only be called after the
// scheduler validated the result's generations (capacity class, profile
// store, library): under that guard the result is bit-identical to what the
// inline path would have computed, so caching it preserves determinism. If a
// cache entry raced in ahead of the commit (an inline submission on the same
// shape), the existing entry wins — it carries the tool calls memoized so far.
func (rt *Runtime) adoptPrepared(jk string, job workflow.Job, opts SubmitOptions, decomp *planner.Result, plan *optimizer.Plan) preparedPlan {
	if r, ok := rt.decompCache[jk]; ok {
		decomp = r
	} else {
		if len(rt.decompCache) >= planCacheLimit {
			rt.decompCache = make(map[string]*planner.Result)
		}
		rt.decompCache[jk] = decomp
	}
	rt.keyBuf = rt.appendPlanKey(rt.keyBuf[:0], decomp.Graph, planOptions(job, opts))
	if p, ok := rt.planCache[string(rt.keyBuf)]; ok {
		plan = p
	} else {
		if len(rt.planCache) >= planCacheLimit {
			rt.planCache = make(map[string]*optimizer.Plan)
		}
		rt.planCache[rt.keys.Intern(rt.keyBuf)] = plan
	}
	return rt.stamp(decomp, plan)
}
