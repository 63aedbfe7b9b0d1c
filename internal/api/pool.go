package api

import (
	"fmt"
	"maps"
	"math"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agents"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/profiles"
	"repro/internal/sim"
	"repro/internal/workflow"
	"repro/internal/workload"
)

// Pool is the serving daemon's runtime layer: a set of long-lived simulated
// clusters ("shards"), each owned by one sim.Loop goroutine and fronted by a
// core.Scheduler. Tenants hash to shards, so every job a tenant submits lands
// in the same shared cluster and multiplexes its warm serving engines,
// plan/decomposition caches and worker pools — instead of provisioning a
// fresh testbed per HTTP request.
//
// HTTP handler goroutines never touch a shard's engine or runtime directly:
// submissions, cancels and stats reads are posted into the shard's loop and
// results come back through the mutex-guarded job registry, so the whole
// surface is race-free under concurrent requests.
//
// Shard memory is bounded by tiered telemetry retention: a compaction tick
// riding each shard's loop advances the cluster's retention watermark to
// now − RetainSimSeconds (never past the oldest running job's start, so
// report finalization windows stay exact), collapsing older history into
// rollup buckets. If a shard's retained telemetry still exceeds
// MaxSeriesPoints — long-running jobs pinning the watermark, or an
// operator-chosen tight budget — the shard is recycled: a warm replacement
// is built and swapped in for new submissions while the old shard drains
// its in-flight jobs to completion in the background.
type Pool struct {
	cfg     PoolConfig
	runtime core.Config // every shard's, but its engine, cluster, loop and library
	shards  []*shard    // guarded by mu: recycling swaps entries

	// draining holds shards displaced by a recycle that are still running
	// their in-flight jobs down in the background. Stats fans out to them
	// too, so their cumulative counters never disappear from the totals:
	// each stays here until its loop exits and retireShard merges its final
	// snapshot into retiredTotals. Guarded by mu.
	draining []*shard

	nextJob atomic.Uint64

	mu      sync.Mutex
	jobs    map[string]*jobRecord
	retired []string // terminal job ids, oldest first, for history eviction
	closed  bool

	// Pool-level lifecycle counters, maintained by the pool's own
	// submit/settle path rather than summed from per-shard schedulers: they
	// stay monotonic and complete while a recycled shard drains in the
	// background (when its scheduler is in no shard list).
	submitted atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	canceled  atomic.Int64

	// recycles counts shard recycles, incremented at swap time (the drain
	// completes in the background). drains joins those background drains so
	// Close can honor its everything-ran-to-completion contract.
	recycles atomic.Int64
	drains   sync.WaitGroup

	// retiredTotals merges every departed shard's final snapshot (recycled
	// out or closed), so the pool totals stay monotonic instead of resetting
	// with the shard. Guarded by mu: retireShard merges a snapshot in inside
	// the critical section that drops the shard from shards/draining, so
	// Stats sees every shard exactly once — live, draining or retired.
	retiredTotals shardTotals

	// started anchors the uptime_s stats field (wall clock).
	started time.Time
}

// PoolConfig sizes the pool.
type PoolConfig struct {
	// Shards is the number of independent runtime shards (default 2).
	Shards int
	// VMsPerShard sizes each shard's cluster in ND96amsr_A100_v4 VMs
	// (default 2, the paper's §4 testbed).
	VMsPerShard int
	// MaxConcurrentPerShard bounds jobs admitted concurrently into one
	// shard's runtime (default 4); excess queues in the shard's scheduler.
	MaxConcurrentPerShard int
	// JobHistoryLimit bounds retained terminal job records (default 4096);
	// the oldest are evicted so the registry cannot grow without bound.
	JobHistoryLimit int
	// RetainSimSeconds is each shard's telemetry retention window in
	// simulated seconds: the compaction tick keeps full-resolution series
	// only over roughly the last RetainSimSeconds of shard history (older
	// epochs collapse into rollup buckets), clamped so the watermark never
	// passes a running job's start. 0 selects the default (3600);
	// math.Inf(1) never compacts (the pre-retention append-only behaviour).
	RetainSimSeconds float64
	// MaxSeriesPoints is a shard's retained-telemetry budget in change
	// points; a shard still exceeding it after compaction is recycled
	// (drain → rebuild → swap) without failing in-flight jobs. 0 selects
	// the default (1<<20, ~24 MiB of series data); math.MaxInt never
	// recycles.
	MaxSeriesPoints int
	// PlanWorkers sizes each shard's off-loop plan-search pool: admission's
	// configuration search runs on these workers against an immutable
	// cluster snapshot and commits optimistically on the shard loop, so
	// bursts plan in parallel instead of serializing on the loop goroutine.
	// 0 selects the default (GOMAXPROCS).
	PlanWorkers int
	// Reconfig enables each shard's mid-flight reconfiguration controller:
	// when the shard's fleet churns (capacity generation moves) or its
	// cluster manager rebalances, running jobs' remaining stages are
	// re-planned and re-bound at stage boundaries if the new plan beats the
	// current one by core's hysteresis margin (0.05). Off by default —
	// disabled shards behave bit-identically to the pre-reconfiguration
	// daemon.
	Reconfig bool
	// RebalancePeriodS enables each shard's workflow-aware rebalancing loop
	// (engine grow/shrink from DAG lookahead) with the given period in
	// simulated seconds — the fleet-churn source reconfiguration reacts to.
	// 0 disables it (the pre-churn daemon behaviour).
	RebalancePeriodS float64
	// FaultRate enables deterministic fault injection on each shard: a
	// seeded, replayable trace of engine crashes, worker losses, stage
	// stalls and transient call errors totalling FaultRate events per
	// simulated second (split evenly across the four kinds), applied by the
	// shard's tick as sim time advances. 0 disables injection (default);
	// disabled shards are bit-identical to the pre-fault daemon.
	FaultRate float64
	// FaultSeed seeds the per-shard fault traces (offset by shard index so
	// shards draw independent streams) and the recovery jitter streams.
	FaultSeed int64
	// MaxRetries enables failure recovery with this per-task attempt
	// budget: failed stages retry with capped exponential backoff on a
	// re-planned binding, repeated failures trip per-implementation
	// circuit breakers and degrade jobs to cheaper plans. 0 disables
	// recovery (a failed task is a terminal job error).
	MaxRetries int
	// JobDeadlineS fails any job still running after this many simulated
	// seconds with deadline_exceeded (0 = no deadline). Setting it alone
	// also enables recovery, with the default attempt budget.
	JobDeadlineS float64
	// SLO enables SLO-tiered serving on every shard scheduler: tenants
	// carry gold/silver/bronze classes, an overload controller watches
	// admission pressure against a watermark hysteresis band, degradable
	// tiers are admitted onto cheaper degraded plans while it is engaged,
	// and per-tenant queue bounds shed excess submissions with a typed
	// shed_overload error (HTTP 429 + Retry-After). Off by default —
	// disabled pools are bit-identical to the pre-SLO daemon.
	SLO bool
	// SLOTenantTiers maps tenants to SLO class names ("gold", "silver",
	// "bronze"); unmapped tenants take SLODefaultClass (default "silver").
	SLOTenantTiers  map[string]string
	SLODefaultClass string
	// SLOHighWatermark engages each shard's overload controller when
	// admission pressure — (running + queued) / MaxConcurrentPerShard —
	// reaches it (default 2.0); SLOLowWatermark disengages it again at or
	// below (default 1.0).
	SLOHighWatermark float64
	SLOLowWatermark  float64
	// SLOQueueBound > 0 overrides every class's per-tenant queue bound;
	// SLOBudgetUSD > 0 overrides every class's tenant cost budget.
	SLOQueueBound int
	SLOBudgetUSD  float64
	// JobIDNamespace, when non-empty, is spliced into minted job IDs
	// ("job-<ns>-%08d") so pools embedded as cluster nodes mint IDs that
	// cannot collide across nodes. Empty keeps the single-node "job-%08d"
	// format byte-identical.
	JobIDNamespace string
	// ProfileRegistry scopes the amortized profiling pass: cluster nodes
	// pass a per-node registry (warmed by replication on join) instead of
	// sharing the process-wide default. Nil uses the default registry.
	ProfileRegistry *profiles.Registry
}

// runtimeConfig maps the pool's knobs onto a shard runtime's core.Config;
// newShard adds the engine, cluster, loop and library. Every exported field is
// the pool's, so of base only the unexported state core's own tests set on a
// Config (its reuse switch) carries through.
func (c PoolConfig) runtimeConfig(base core.Config) core.Config {
	rc := base
	rc.ProfileRegistry, rc.RebalancePeriod, rc.CPUType = c.ProfileRegistry, sim.Duration(c.RebalancePeriodS), ""
	rc.PlanWorkers, rc.Reconfig, rc.Recovery, rc.SLO = c.PlanWorkers, nil, nil, nil
	if c.Reconfig {
		rc.Reconfig = &core.ReconfigConfig{}
	}
	if c.MaxRetries > 0 || c.JobDeadlineS > 0 {
		rc.Recovery = &core.FaultPolicy{MaxAttempts: c.MaxRetries, JobDeadlineS: c.JobDeadlineS, Seed: c.FaultSeed}
	}
	if c.SLO {
		rc.SLO = &core.SLOConfig{
			TenantTiers:   c.SLOTenantTiers,
			DefaultClass:  c.SLODefaultClass,
			HighWatermark: c.SLOHighWatermark,
			LowWatermark:  c.SLOLowWatermark,
			QueueBound:    c.SLOQueueBound,
			BudgetUSD:     c.SLOBudgetUSD,
		}
	}
	return rc
}

// Validate reports the first setting the pool would otherwise have to
// reinterpret: a negative or NaN number (0 selects a field's default, and a
// window or budget that must never trigger is math.Inf(1) or math.MaxInt), an
// SLO sub-field set while SLO is off (it would be ignored), an SLO
// configuration core.SLOConfig.Validate rejects, or a FaultRate whose trace
// workload.FaultSpec.Validate rejects (+Inf among them). FaultSeed is a seed,
// not a quantity, and takes any value. newPool calls it.
func (c PoolConfig) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Shards", float64(c.Shards)},
		{"VMsPerShard", float64(c.VMsPerShard)},
		{"MaxConcurrentPerShard", float64(c.MaxConcurrentPerShard)},
		{"JobHistoryLimit", float64(c.JobHistoryLimit)},
		{"RetainSimSeconds", c.RetainSimSeconds},
		{"MaxSeriesPoints", float64(c.MaxSeriesPoints)},
		{"PlanWorkers", float64(c.PlanWorkers)},
		{"RebalancePeriodS", c.RebalancePeriodS},
		{"FaultRate", c.FaultRate},
		{"MaxRetries", float64(c.MaxRetries)},
		{"JobDeadlineS", c.JobDeadlineS},
		{"SLOHighWatermark", c.SLOHighWatermark},
		{"SLOLowWatermark", c.SLOLowWatermark},
		{"SLOQueueBound", float64(c.SLOQueueBound)},
		{"SLOBudgetUSD", c.SLOBudgetUSD},
	} {
		if !(f.v >= 0) {
			return fmt.Errorf("api: %s must be >= 0 (got %v)", f.name, f.v)
		}
	}
	if c.FaultRate > 0 {
		if err := c.faultSpec(0).Validate(); err != nil {
			return fmt.Errorf("api: FaultRate: %w", err)
		}
	}
	if !c.SLO {
		orphan := ""
		switch {
		case len(c.SLOTenantTiers) > 0:
			orphan = "SLOTenantTiers"
		case c.SLODefaultClass != "":
			orphan = "SLODefaultClass"
		case c.SLOHighWatermark != 0 || c.SLOLowWatermark != 0:
			orphan = "SLOHighWatermark/SLOLowWatermark"
		case c.SLOQueueBound != 0:
			orphan = "SLOQueueBound"
		case c.SLOBudgetUSD != 0:
			orphan = "SLOBudgetUSD"
		default:
			return nil
		}
		return fmt.Errorf("api: %s requires SLO", orphan)
	}
	if err := c.runtimeConfig(core.Config{}).SLO.Validate(); err != nil {
		return fmt.Errorf("api: %w", err)
	}
	return nil
}

// Retention defaults: an hour of simulated history at full resolution, and
// a ~24 MiB per-shard point budget that only a watermark-pinning workload
// can reach.
const (
	defaultRetainSimSeconds = 3600
	defaultMaxSeriesPoints  = 1 << 20
)

// Fault-injection trace parameters: a day of simulated horizon (far past any
// shard's realistic lifetime before recycling), a one-minute stall per
// stage-timeout event and an 8 s engine reload after a crash.
const (
	faultHorizonS     = 86400.0
	faultStallS       = 60.0
	faultCrashReloadS = 8.0
	maxJobAttemptLog  = 32
)

// faultSpec is shard idx's fault-injection trace: FaultRate split evenly
// across the four kinds, its own seed.
func (c PoolConfig) faultSpec(idx int) workload.FaultSpec {
	return workload.FaultSpec{
		EngineCrashRate:  c.FaultRate / 4,
		WorkerLossRate:   c.FaultRate / 4,
		StageTimeoutRate: c.FaultRate / 4,
		CallErrorRate:    c.FaultRate / 4,
		StallS:           faultStallS,
		CrashReloadS:     faultCrashReloadS,
		HorizonS:         faultHorizonS,
		Seed:             c.FaultSeed + int64(idx),
	}
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.Shards <= 0 {
		c.Shards = 2
	}
	if c.VMsPerShard <= 0 {
		c.VMsPerShard = 2
	}
	if c.MaxConcurrentPerShard <= 0 {
		c.MaxConcurrentPerShard = 4
	}
	if c.JobHistoryLimit <= 0 {
		c.JobHistoryLimit = 4096
	}
	if c.RetainSimSeconds == 0 {
		c.RetainSimSeconds = defaultRetainSimSeconds
	}
	if c.MaxSeriesPoints == 0 {
		c.MaxSeriesPoints = defaultMaxSeriesPoints
	}
	return c
}

// shard is one long-lived runtime plus the loop goroutine that owns it.
type shard struct {
	pool  *Pool
	idx   int
	eng   *sim.Engine
	cl    *cluster.Cluster
	rt    *core.Runtime
	sched *core.Scheduler
	loop  *sim.Loop

	// Retention state, owned by the shard's loop goroutine (written only in
	// the tick): compactStride is how far the watermark must lag the target
	// before compaction runs (retention/4 — amortizes the O(points) copy),
	// droppedPoints counts change points compacted away, recycling latches
	// once a recycle has been requested.
	compactStride float64
	droppedPoints int
	recycling     bool

	// Fault replay state, also owned by the loop goroutine: the shard's
	// pre-generated fault trace and the cursor of the next event to apply.
	// The tick injects every event whose timestamp the simulation has
	// reached, so replay is deterministic in sim time regardless of
	// wall-clock batching.
	faults   []workload.FaultEvent
	faultIdx int
}

// close drains the shard's loop (plan searches in flight resolve first — Run
// waits on their holds — then queued and running jobs complete) and stops its
// plan-search workers. Blocks until both are down.
func (sh *shard) close() {
	sh.loop.Close()
	sh.sched.StopPlanSearch()
}

// errShuttingDown is returned once Close has been called.
var errShuttingDown = fmt.Errorf("api: pool is shutting down")

// newPool provisions the shards, every shard runtime's configuration laid over
// base (see runtimeConfig), and starts their loop goroutines. A shard that
// fails to provision takes down the ones already running.
func newPool(cfg PoolConfig, base core.Config) (*Pool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Pool{cfg: cfg.withDefaults(), runtime: cfg.runtimeConfig(base), jobs: map[string]*jobRecord{}, started: time.Now()}
	for i := 0; i < p.cfg.Shards; i++ {
		sh, err := p.newShard(i)
		if err != nil {
			for _, sh := range p.shards {
				sh.close()
			}
			return nil, err
		}
		p.shards = append(p.shards, sh)
	}
	return p, nil
}

// newShard builds one warm runtime shard and starts its loop goroutine.
// Recycling builds replacement shards through the same path, so a recycled
// shard comes back identically provisioned (profiling is content-memoized,
// making the rebuild cheap).
func (p *Pool) newShard(idx int) (*shard, error) {
	cfg := p.cfg
	// The fault trace comes first: nothing of the shard is running yet if it
	// is rejected.
	var faults []workload.FaultEvent
	if cfg.FaultRate > 0 {
		var err error
		if faults, err = workload.FaultTrace(cfg.faultSpec(idx)); err != nil {
			return nil, fmt.Errorf("api: fault trace for shard %d: %w", idx, err)
		}
	}
	se := sim.NewEngine()
	cl := cluster.New(se, hardware.DefaultCatalog())
	for v := 0; v < cfg.VMsPerShard; v++ {
		cl.AddVM(fmt.Sprintf("s%d-vm%d", idx, v), hardware.NDv4SKUName, false)
	}
	// Off-loop admission: plan search runs on a worker pool against
	// immutable snapshots and commits on the loop (0 = GOMAXPROCS).
	rc := p.runtime
	rc.Engine, rc.Cluster, rc.Loop, rc.Library = se, cl, sim.NewLoop(se), agents.DefaultLibrary()
	rt, err := core.New(rc)
	if err != nil {
		return nil, fmt.Errorf("api: provisioning shard %d: %w", idx, err)
	}
	sh := &shard{
		pool:   p,
		idx:    idx,
		eng:    se,
		cl:     cl,
		rt:     rt,
		sched:  core.NewScheduler(se, rt, cfg.MaxConcurrentPerShard),
		loop:   rc.Loop,
		faults: faults,
	}
	sh.compactStride = cfg.RetainSimSeconds / 4
	// The retention tick rides the loop (SetTick must precede Run): it runs
	// after each event batch, so it never interleaves with simulation
	// callbacks and needs no locks for shard state.
	sh.loop.SetTick(sh.tick)
	go sh.loop.Run()
	return sh, nil
}

// tick is the background compaction tick: advance the retention watermark
// once it lags the target by a stride, then check the telemetry budget. Runs
// on the shard's loop goroutine after every event batch.
func (sh *shard) tick() {
	p := sh.pool
	// Replay every fault event the simulation has reached. The tick runs at
	// a quiescent instant between event batches, so injection (which may
	// schedule reload/retry events) composes with the heap like any other
	// same-instant work; each event fires exactly once.
	for sh.faultIdx < len(sh.faults) && sh.faults[sh.faultIdx].AtS <= sh.eng.Now().Seconds() {
		sh.sched.Inject(sh.faults[sh.faultIdx])
		sh.faultIdx++
	}
	// An infinite window puts the target at -Inf, which never lags the
	// watermark by the (infinite) stride.
	target := sh.eng.Now().Seconds() - p.cfg.RetainSimSeconds
	// Never compact past a running job's execution window: Finalize
	// integrates from the job's start, and a window behind the watermark is
	// a loud typed error.
	if min, ok := sh.sched.MinRunningStartS(); ok && min < target {
		target = min
	}
	if target-sh.cl.Watermark() >= sh.compactStride {
		sh.droppedPoints += sh.cl.AdvanceEpoch(target)
	}
	if !sh.recycling {
		if fp := sh.cl.TelemetryFootprint(); fp.Points > p.cfg.MaxSeriesPoints {
			sh.recycling = true
			// The Add happens on the loop goroutine, which Close joins
			// before waiting on drains — so no recycle can slip past a
			// completed Close.
			p.drains.Add(1)
			go func() {
				defer p.drains.Done()
				p.recycleShard(sh)
			}()
		}
	}
}

// shardSnapshot is everything a shard contributes to the pool totals, read in
// one visit beside its scheduler stats st: the additive counters, the
// per-tenant SLO accounting (sorted by tenant) and the event queue's
// high-water mark. The caller must be the shard's loop goroutine, or its sole
// remaining accessor after the loop has exited.
type shardSnapshot struct {
	core.Counters
	tenants     []core.TenantSLOStats
	peakPending int
}

func readShardSnapshot(sh *shard, st core.SchedulerStats) shardSnapshot {
	return shardSnapshot{
		Counters:    st.Counters,
		tenants:     sh.sched.SLOTenants(),
		peakPending: sh.eng.PeakPending(),
	}
}

// shardTotals accumulates shard snapshots. merge is the one fold behind every
// pool total: Stats starts from a copy of p.retiredTotals and merges each
// draining and each live shard's snapshot into it; retireShard merges a
// departed shard's final snapshot into p.retiredTotals itself.
type shardTotals struct {
	core.Counters
	tenants map[string]core.TenantSLOStats
	// peakPending is a running max, not a sum: the deepest pending event
	// queue any merged shard generation reached.
	peakPending int
}

func (t *shardTotals) merge(s shardSnapshot) {
	t.Counters.Add(s.Counters)
	t.peakPending = max(t.peakPending, s.peakPending)
	if len(s.tenants) > 0 && t.tenants == nil {
		t.tenants = make(map[string]core.TenantSLOStats, len(s.tenants))
	}
	for _, row := range s.tenants {
		agg := t.tenants[row.Tenant]
		agg.Add(row)
		t.tenants[row.Tenant] = agg
	}
}

// retireShard retires a shard whose loop has exited: the caller is its sole
// remaining accessor, so reading the final snapshot is race-free. The merge
// into p.retiredTotals and the removal from the Stats fan-out (p.shards on
// Close, p.draining after a recycle) share one critical section, so a
// concurrent Stats sees the shard live or its totals retired — never neither —
// and no total, tenant rows and peak_pending included, moves backwards.
func (p *Pool) retireShard(sh *shard) {
	final := readShardSnapshot(sh, sh.sched.Stats())
	isSh := func(s *shard) bool { return s == sh }
	p.mu.Lock()
	p.shards, p.draining = slices.DeleteFunc(p.shards, isSh), slices.DeleteFunc(p.draining, isSh)
	p.retiredTotals.merge(final)
	p.mu.Unlock()
}

// recycleShard replaces a shard whose telemetry outgrew its budget: build a
// warm replacement, swap it in so new submissions land there, then drain
// the displaced shard — posts already accepted and every in-flight job run
// to completion (their records settle normally; cancels still reach the
// draining loop through the records' shard pointers).
func (p *Pool) recycleShard(old *shard) {
	fresh, err := p.newShard(old.idx)
	if err != nil {
		// Rebuild failed (same config that provisioned the pool, so this is
		// effectively unreachable); keep serving from the old shard and let
		// a later tick retry.
		old.loop.Post(func() { old.recycling = false })
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		fresh.close()
		return
	}
	p.shards[old.idx] = fresh
	p.draining = append(p.draining, old)
	p.recycles.Add(1)
	p.mu.Unlock()
	// Drain in the background: the displaced shard stays on p.draining, so
	// its cumulative counters remain visible to Stats while it winds down
	// and its jobs settle through the pool-level counters.
	old.close()
	p.retireShard(old)
}

// Close drains every shard loop (in-flight and queued jobs run to completion)
// and stops accepting submissions. Safe to call more than once. Shards
// displaced by an in-progress recycle are drained by their recycler
// goroutine, which Close joins: setting closed first guarantees no further
// swaps land after the snapshot below, closing the live loops quiesces the
// ticks that could start new recycles, and the final Wait covers drains
// already in flight.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	shards := append([]*shard(nil), p.shards...)
	p.mu.Unlock()
	for _, sh := range shards {
		sh.close()
		// No recycler owns this shard (recyclers abort once closed is set),
		// so post-Close Stats reports the true final totals instead of losing
		// the live shards' counters.
		p.retireShard(sh)
	}
	p.drains.Wait()
}

// Closed reports whether Close has begun: a closed (or draining) pool
// rejects new submissions. The router tier's health checks use this to
// steer traffic away from departing nodes.
func (p *Pool) Closed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// Done returns the completion channel of a registered job: it is closed when
// the job settles terminal. The second result is false for unknown (or
// already evicted) IDs. The router tier's drain path selects on these
// channels to wait out a departing node's in-flight jobs.
func (p *Pool) Done(id string) (<-chan struct{}, bool) {
	p.mu.Lock()
	rec, ok := p.jobs[id]
	p.mu.Unlock()
	if !ok {
		return nil, false
	}
	return rec.Done(), true
}

// shardFor maps a tenant to its home shard. The modulo happens in uint32 so
// the index stays non-negative on 32-bit platforms. Callers must hold p.mu:
// recycling swaps slice entries.
func (p *Pool) shardFor(tenant string) *shard {
	return p.shards[int(fnv32a(tenant)%uint32(len(p.shards)))]
}

// fnv32a is hash/fnv's New32a over the string, without the hash object and
// the []byte copy shardFor would otherwise allocate on every admission.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// formatJobID renders "job-%08d" (or "job-<ns>-%08d" under a namespace)
// without fmt's reflection and boxing — the ID is minted on every admission,
// so the Sprintf showed up in allocation profiles. IDs past eight digits
// widen naturally, matching Sprintf.
func formatJobID(ns string, n uint64) string {
	var b [12]byte
	copy(b[:], "job-00000000")
	i := len(b)
	for n > 0 && i > 4 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	digits := string(b[4:])
	if n > 0 {
		digits = strconv.FormatUint(n, 10) + digits
	}
	if ns != "" {
		return "job-" + ns + "-" + digits
	}
	return "job-" + digits
}

// Submit admits a job for a tenant and returns its registry record.
// Admission is asynchronous: the record starts queued and settles when the
// shard completes the job. timeline includes the rendered execution timeline
// in the result; wait gives the record a wake-up channel for the caller to
// block on with rec.wait.
func (p *Pool) Submit(tenant string, job workflow.Job, opts core.SubmitOptions, timeline, wait bool) (*jobRecord, error) {
	// Engines stay warm across jobs in the shared runtime — the daemon owns
	// their lifecycle, and successive jobs multiplex them.
	opts.KeepEngines = true
	rec := &jobRecord{
		id:       formatJobID(p.cfg.JobIDNamespace, p.nextJob.Add(1)),
		tenant:   tenant,
		job:      job,
		opts:     opts,
		timeline: timeline,
		status:   core.JobQueued,
	}
	if wait {
		rec.waiter = signals.Get().(chan struct{})
	}
	// With SLO tiers on, admission is synchronous: the handler needs the
	// typed shed/budget rejection to answer 429 while the client is still
	// on the wire, so the record carries an admission reply back. With SLO
	// off the channel stays nil and the path is fire-and-forget.
	if p.cfg.SLO {
		rec.admitted = signals.Get().(chan struct{})
	}
	// A recycle can swap the tenant's home shard between picking it and
	// posting (the displaced loop rejects posts once it starts draining), so
	// retry against the replacement; one retry suffices per concurrent
	// recycle, and the bound only guards against a pathological storm.
	for attempt := 0; ; attempt++ {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil, errShuttingDown
		}
		sh := p.shardFor(tenant)
		p.mu.Unlock()
		rec.sh = sh
		rec.shard = sh.idx
		// The record is the posted task: its Run admits it on the shard loop.
		if sh.loop.PostTask(rec) {
			p.submitted.Add(1)
			break
		}
		if attempt >= 8 {
			return nil, errShuttingDown
		}
	}
	// Register only after the record is enqueued: the shard inbox is FIFO, so
	// any later posted cancel observes the handle.
	p.mu.Lock()
	p.jobs[rec.id] = rec
	p.mu.Unlock()
	if rec.admitted != nil {
		<-rec.admitted
		// Run wrote admitErr before sending the token and is done with the
		// channel once it has, so it goes straight back to the pool.
		signals.Put(rec.admitted)
		if rec.admitErr != nil {
			// Shed or budget-rejected: the settled record is returned with
			// the typed error so the handler can render the job envelope
			// alongside the 429.
			return rec, rec.admitErr
		}
	}
	return rec, nil
}

// retire records a terminal job for history eviction.
func (p *Pool) retire(rec *jobRecord) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.retired = append(p.retired, rec.id)
	for len(p.retired) > p.cfg.JobHistoryLimit {
		delete(p.jobs, p.retired[0])
		p.retired = p.retired[1:]
	}
}

// Get returns a snapshot of a job's state. Status transitions are pushed
// into the record by the owning shard (it observes its handle), so this is a
// mutex-only read.
func (p *Pool) Get(id string) (JobState, bool) {
	p.mu.Lock()
	rec, ok := p.jobs[id]
	p.mu.Unlock()
	if !ok {
		return JobState{}, false
	}
	return rec.snapshot(), true
}

// Cancel terminates a job (queued or running). It reports the post-cancel
// state, whether the cancel took effect, and whether the job exists.
func (p *Pool) Cancel(id string) (JobState, bool, bool) {
	p.mu.Lock()
	rec, ok := p.jobs[id]
	p.mu.Unlock()
	if !ok {
		return JobState{}, false, false
	}
	// The record pins its owning shard directly: after a recycle the index
	// points at the replacement, but the job (and its handle) live on the
	// displaced shard until its drain completes.
	sh := rec.sh
	reply := make(chan bool, 1)
	if !sh.loop.Post(func() {
		rec.mu.Lock()
		h := rec.handle
		rec.mu.Unlock()
		reply <- h != nil && h.Cancel()
	}) {
		return rec.snapshot(), false, true
	}
	canceled := <-reply
	return rec.snapshot(), canceled, true
}

// ShardStats is one live shard's row in GET /v1/stats: its Counters plus the
// gauges and per-shard state that do not sum into pool totals.
type ShardStats struct {
	Shard           int     `json:"shard"`
	SimTimeS        float64 `json:"sim_time_s"`
	Submitted       int     `json:"submitted"`
	Completed       int     `json:"completed"`
	Failed          int     `json:"failed"`
	Canceled        int     `json:"canceled"`
	Running         int     `json:"running"`
	Queued          int     `json:"queued"`
	PeakRunning     int     `json:"peak_running"`
	PlanCacheHits   int     `json:"plan_cache_hits"`
	DecompCacheHits int     `json:"decomp_cache_hits"`
	core.Counters
	// Live gauges beside the counters: the plan-search pool's size and
	// in-flight searches, circuit breakers not currently closed, the
	// overload controller's engaged state, and the sim engine's
	// pending-queue high-water mark.
	PlanWorkers        int  `json:"plan_workers"`
	PlanSearchInflight int  `json:"plan_search_inflight"`
	BreakerOpen        int  `json:"breaker_open"`
	OverloadActive     bool `json:"overload_active"`
	PeakPending        int  `json:"peak_pending"`
	// Fleet-churn observability: the shard cluster's state and
	// capacity-class generations (capacity_gen moving is exactly what
	// triggers mid-flight reconfiguration).
	ClusterGen  uint64 `json:"cluster_gen"`
	CapacityGen uint64 `json:"capacity_gen"`
	// TenantSLO is the per-tenant SLO accounting (empty with SLO tiers
	// disabled).
	TenantSLO   []TenantSLOJSON `json:"tenant_slo,omitempty"`
	MeanGPUUtil float64         `json:"mean_gpu_util"`
	// Telemetry retention accounting: live change points and their bytes
	// retained by the shard's cluster, the rollup buckets summarizing
	// compacted epochs, the retention watermark and epoch count, and the
	// points dropped by compaction so far.
	TelemetryPoints int              `json:"telemetry_points"`
	TelemetryBytes  int              `json:"telemetry_bytes"`
	RollupBuckets   int              `json:"rollup_buckets"`
	WatermarkS      float64          `json:"watermark_s"`
	Epoch           int              `json:"epoch"`
	CompactedPoints int              `json:"compacted_points"`
	Engines         []EngineStatJSON `json:"engines"`
}

// TenantSLOJSON is one tenant's SLO accounting row in GET /v1/stats.
type TenantSLOJSON struct {
	core.TenantSLOStats
	// Attainment is SLOMet / (SLOMet + SLOMissed); 0 when the tier's
	// latency target is untracked or nothing completed yet.
	Attainment float64 `json:"attainment"`
}

// tenantSLORow wraps core accounting as the wire row (attainment filled).
func tenantSLORow(t core.TenantSLOStats) TenantSLOJSON {
	row := TenantSLOJSON{TenantSLOStats: t}
	if n := t.SLOMet + t.SLOMissed; n > 0 {
		row.Attainment = float64(t.SLOMet) / float64(n)
	}
	return row
}

// EngineStatJSON describes one warm serving engine.
type EngineStatJSON struct {
	Model      string `json:"model"`
	Capability string `json:"capability"`
	GPUs       int    `json:"gpus"`
	QueueDepth int    `json:"queue_depth"`
	Active     int    `json:"active"`
}

// PoolStats aggregates the shards for GET /v1/stats.
type PoolStats struct {
	Mode   string       `json:"mode"` // always "shared"
	Shards []ShardStats `json:"shards,omitempty"`
	// Lifecycle counters, maintained by the pool's own submit/settle path:
	// monotonic, and they include jobs served by recycled shards even while
	// one is still draining. Running/Queued (and the per-shard rows) are
	// live-shard gauges and can transiently exclude a draining shard's
	// in-flight jobs.
	Submitted   int `json:"submitted"`
	Completed   int `json:"completed"`
	Failed      int `json:"failed"`
	Canceled    int `json:"canceled"`
	Running     int `json:"running"`
	Queued      int `json:"queued"`
	EnginesUp   int `json:"engines_up"`
	JobsTracked int `json:"jobs_tracked"`
	// TelemetryPoints/TelemetryBytes total the live shards' retained
	// telemetry; Recycles counts shards replaced after exceeding
	// MaxSeriesPoints (incremented at swap; the displaced shard drains in
	// the background).
	TelemetryPoints int `json:"telemetry_points"`
	TelemetryBytes  int `json:"telemetry_bytes"`
	Recycles        int `json:"recycles"`
	// Counters sums every shard generation — live, draining and retired — so
	// each stays monotonic while shards churn.
	core.Counters
	// Live-shard gauges: in-flight plan searches, breakers not closed, and
	// whether any live shard's overload controller is engaged.
	PlanSearchInflight int  `json:"plan_search_inflight"`
	BreakerOpen        int  `json:"breaker_open"`
	OverloadActive     bool `json:"overload_active"`
	// PeakPending is the deepest pending event queue any shard generation
	// reached — a max across live, draining and retired shards, not a sum.
	PeakPending int `json:"peak_pending"`
	// TenantSLO merges the per-tenant rows across shard generations like
	// Counters, with attainment recomputed over the merged counts.
	TenantSLO []TenantSLOJSON `json:"tenant_slo,omitempty"`
	// Memory is the process's live heap health (see MemoryStats).
	Memory MemoryStats `json:"memory"`
	// UptimeS is the daemon pool's wall-clock age in seconds.
	UptimeS float64 `json:"uptime_s"`
}

// MemoryStats is the process-wide memory-health slice of GET /v1/stats, read
// from runtime/metrics at stats time: live heap bytes and objects, completed
// GC cycles, and the 95th percentile of the process's GC stop-the-world pauses
// so far (each pause on its own — a cycle has two — to the resolution of the
// runtime's histogram buckets: the upper bound of the bucket the percentile
// falls in).
type MemoryStats struct {
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
	HeapObjects    uint64  `json:"heap_objects"`
	NumGC          uint32  `json:"num_gc"`
	GCPauseP95Us   float64 `json:"gc_pause_p95_us"`
}

// memSamples is the one sample set every stats read fills: built once, so
// the pause histogram's buckets are allocated once, and read under its lock.
var memSamples = struct {
	sync.Mutex
	s [4]metrics.Sample
}{s: [4]metrics.Sample{
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/gc/heap/objects:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/sched/pauses/total/gc:seconds"},
}}

// ReadMemoryStats snapshots the Go heap for the stats endpoint, from
// runtime/metrics rather than runtime.ReadMemStats: that one stops the world,
// and a scrape must not put a pause into every request in flight.
func ReadMemoryStats() MemoryStats {
	memSamples.Lock()
	defer memSamples.Unlock()
	s := memSamples.s[:]
	metrics.Read(s)
	out := MemoryStats{
		HeapAllocBytes: s[0].Value.Uint64(),
		HeapObjects:    s[1].Value.Uint64(),
		NumGC:          uint32(s[2].Value.Uint64()),
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		out.GCPauseP95Us = histogramQuantile(s[3].Value.Float64Histogram(), 0.95) * 1e6
	}
	return out
}

// histogramQuantile returns the nearest-rank q-quantile of h as the upper
// bound of the bucket it falls in (the lower bound where the bucket has no
// finite upper one), and zero for an empty histogram.
func histogramQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range h.Counts {
		if seen += c; seen >= rank {
			if hi := h.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return h.Buckets[i]
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// Stats gathers a consistent per-shard view (each shard snapshot is taken on
// its own loop goroutine) and aggregates it.
func (p *Pool) Stats() PoolStats { return p.StatsWithMemory(ReadMemoryStats()) }

// StatsWithMemory is Stats with the process's memory reading supplied by the
// caller: the router, whose nodes' pools share one process, reads it once for
// all of them.
func (p *Pool) StatsWithMemory(mem MemoryStats) PoolStats {
	for {
		if out, ok := p.statsOnce(mem); ok {
			return out
		}
		// A snapshotted shard's loop exited between the snapshot and the
		// fan-out: its counters are mid-fold into the retired totals (by its
		// recycler, or by Close). Re-snapshot — the folded state is complete
		// and the exited shard is off the fan-out lists — so the counters
		// reported here never transiently regress.
		time.Sleep(50 * time.Microsecond)
	}
}

// statsOnce takes one snapshot attempt; ok is false if a shard's loop exited
// mid-fan-out and the caller should retry.
func (p *Pool) statsOnce(mem MemoryStats) (PoolStats, bool) {
	out := PoolStats{Mode: "shared", UptimeS: time.Since(p.started).Seconds(), Memory: mem}
	// The shard-list snapshot and the copy of the retired totals share one
	// critical section with retireShard, so this snapshot counts every shard
	// exactly once.
	p.mu.Lock()
	out.JobsTracked = len(p.jobs)
	shards, live := slices.Concat(p.shards, p.draining), len(p.shards)
	totals := p.retiredTotals
	totals.tenants = maps.Clone(totals.tenants)
	out.Recycles = int(p.recycles.Load())
	out.Submitted = int(p.submitted.Load())
	out.Completed = int(p.completed.Load())
	out.Failed = int(p.failed.Load())
	out.Canceled = int(p.canceled.Load())
	p.mu.Unlock()
	// Fan the snapshot closures out to every shard first, then collect:
	// each shard takes its snapshot on its own loop goroutine concurrently,
	// so stats latency is the slowest shard's round trip, not the sum.
	// Draining shards contribute their snapshot to the totals but no row:
	// their capacity has already been replaced and their telemetry footprint
	// is winding down, not serving.
	type shardReply struct {
		snap shardSnapshot
		row  *ShardStats // nil for a draining shard
	}
	replies := make([]chan shardReply, len(shards))
	for i, sh := range shards {
		reply := make(chan shardReply, 1)
		if !sh.loop.Post(func() {
			st := sh.sched.Stats()
			r := shardReply{snap: readShardSnapshot(sh, st)}
			if i < live {
				r.row = shardRow(sh, st, r.snap)
			}
			reply <- r
		}) {
			return out, false
		}
		replies[i] = reply
	}
	for _, reply := range replies {
		r := <-reply
		totals.merge(r.snap)
		if r.row == nil {
			continue
		}
		out.Shards = append(out.Shards, *r.row)
		out.Running += r.row.Running
		out.Queued += r.row.Queued
		out.EnginesUp += len(r.row.Engines)
		out.TelemetryPoints += r.row.TelemetryPoints
		out.TelemetryBytes += r.row.TelemetryBytes
		out.PlanSearchInflight += r.row.PlanSearchInflight
		out.BreakerOpen += r.row.BreakerOpen
		out.OverloadActive = out.OverloadActive || r.row.OverloadActive
	}
	out.Counters = totals.Counters
	out.PeakPending = totals.peakPending
	for _, t := range totals.tenants {
		out.TenantSLO = append(out.TenantSLO, tenantSLORow(t))
	}
	sort.Slice(out.TenantSLO, func(i, j int) bool {
		return out.TenantSLO[i].Tenant < out.TenantSLO[j].Tenant
	})
	return out, true
}

// shardRow builds a live shard's /v1/stats row around its snapshot. It must
// run on the shard's loop goroutine.
func shardRow(sh *shard, st core.SchedulerStats, snap shardSnapshot) *ShardStats {
	now := sh.eng.Now().Seconds()
	fp := sh.cl.TelemetryFootprint()
	ss := &ShardStats{
		Shard:              sh.idx,
		SimTimeS:           now,
		Submitted:          st.Submitted,
		Completed:          st.Completed,
		Failed:             st.Failed,
		Canceled:           st.Canceled,
		Running:            st.Running,
		Queued:             st.Queued,
		PeakRunning:        st.PeakRunning,
		PlanCacheHits:      sh.rt.PlanCacheHits(),
		DecompCacheHits:    sh.rt.DecompCacheHits(),
		Counters:           snap.Counters,
		PlanWorkers:        sh.sched.PlanWorkers(),
		PlanSearchInflight: st.PlanSearchInflight,
		BreakerOpen:        st.BreakerOpen,
		OverloadActive:     st.OverloadActive,
		PeakPending:        snap.peakPending,
		ClusterGen:         sh.cl.Gen(),
		CapacityGen:        sh.cl.CapacityGen(),
		TelemetryPoints:    fp.Points,
		TelemetryBytes:     fp.Bytes,
		RollupBuckets:      fp.RollupBuckets,
		WatermarkS:         sh.cl.Watermark(),
		Epoch:              sh.cl.Epoch(),
		CompactedPoints:    sh.droppedPoints,
	}
	if now > 0 {
		// Full-history mean: epochs behind the watermark come from the
		// aggregate's rollup buckets.
		ss.MeanGPUUtil = sh.cl.MeanGPUUtilOver(0, now)
	}
	for _, t := range snap.tenants {
		ss.TenantSLO = append(ss.TenantSLO, tenantSLORow(t))
	}
	for name, es := range sh.rt.Manager().Stats().Engines {
		ss.Engines = append(ss.Engines, EngineStatJSON{
			Model:      name,
			Capability: es.Capability,
			GPUs:       es.GPUs,
			QueueDepth: es.QueueDepth,
			Active:     es.Active,
		})
	}
	sort.Slice(ss.Engines, func(i, j int) bool {
		return ss.Engines[i].Model < ss.Engines[j].Model
	})
	return ss
}
