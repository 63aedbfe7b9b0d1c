// Package llmsim simulates an LLM serving engine — the substrate behind the
// paper's NVLM deployment (8 GPUs for text completion, 2 for embeddings).
// It models the serving behaviours the runtime's decisions depend on:
//
//   - continuous batching: concurrent sequences share aggregate throughput,
//     so utilization (and energy) rises with load while per-request latency
//     degrades gracefully;
//   - KV-cache admission control: a request is admitted only when device
//     memory can hold its context; otherwise it queues;
//   - resizable GPU allocations: the workflow-aware cluster manager can
//     grow or shrink an engine, which scales both throughput and KV space —
//     the cross-component GPU/KV co-scheduling lever.
//
// The token-level model: each request carries work = prompt·prefillWeight +
// output tokens. Active sequences process work under processor sharing with
// a per-sequence cap (single-stream decode is memory-bandwidth bound; the
// aggregate is compute bound), re-planned event-by-event.
package llmsim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/sim"
)

// ErrInjected marks a request failed by fault injection (FailNext) — the
// transient call error a caller may retry.
var ErrInjected = errors.New("llmsim: injected call failure")

// ModelSpec describes the served model's performance envelope on the
// reference GPU.
type ModelSpec struct {
	Name string
	// ParamsB is model size in billions of parameters.
	ParamsB float64
	// AggTokensPerGPUSec is aggregate token throughput per GPU at full batch.
	AggTokensPerGPUSec float64
	// SeqTokensPerSec caps single-sequence decode speed.
	SeqTokensPerSec float64
	// PrefillWeight converts prompt tokens to work units (prefill is much
	// cheaper per token than decode; typically 0.05–0.2).
	PrefillWeight float64
	// KVTokensPerGPU is KV-cache capacity contributed by each GPU.
	KVTokensPerGPU int
	// MaxBatch caps concurrent sequences regardless of KV headroom.
	MaxBatch int
	// RefGPU anchors the rates; other generations scale by FLOPS ratio.
	RefGPU hardware.GPUType
	// Intensity is device utilization when the engine is saturated.
	Intensity float64
	// ActivePowerFloor is the fraction of Intensity drawn whenever at least
	// one sequence is decoding, regardless of batch size. Batch-1 decode is
	// memory-bandwidth bound but still keeps the SMs busy: a mostly-empty
	// engine burns most of its TDP — which is where the paper's baseline
	// loses its energy (Table 2). Zero models a perfectly proportional
	// device.
	ActivePowerFloor float64
}

// Validate checks the spec.
func (m ModelSpec) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("llmsim: model without name")
	}
	if m.AggTokensPerGPUSec <= 0 || m.SeqTokensPerSec <= 0 {
		return fmt.Errorf("llmsim: %s has non-positive throughput", m.Name)
	}
	if m.PrefillWeight <= 0 || m.KVTokensPerGPU <= 0 || m.MaxBatch <= 0 {
		return fmt.Errorf("llmsim: %s has non-positive capacity parameters", m.Name)
	}
	if m.Intensity <= 0 || m.Intensity > 1 {
		return fmt.Errorf("llmsim: %s intensity %v outside (0,1]", m.Name, m.Intensity)
	}
	if m.ActivePowerFloor < 0 || m.ActivePowerFloor > 1 {
		return fmt.Errorf("llmsim: %s active power floor %v outside [0,1]", m.Name, m.ActivePowerFloor)
	}
	return nil
}

// Request is one inference call.
type Request struct {
	ID           string
	PromptTokens int
	OutputTokens int
	// OnComplete fires when the last token is generated — or, under fault
	// injection, when the request fails (Err is then non-nil). It is the
	// engine's last use of the request: the engine keeps no pointer to it and
	// reads nothing of it afterwards, so the callback may reuse the record.
	OnComplete func(*Request)

	// Err is the request's terminal error: nil on success, ErrInjected when
	// fault injection failed the call. Callers decide whether to retry.
	Err error

	// Metrics populated by the engine.
	EnqueuedAt  sim.Time
	AdmittedAt  sim.Time
	CompletedAt sim.Time

	work      float64 // remaining work units
	totalWork float64
	kvTokens  int // reserved KV space
	admitted  bool
	done      bool
}

// QueueDelay returns time spent waiting for admission.
func (r *Request) QueueDelay() sim.Duration { return r.AdmittedAt.Sub(r.EnqueuedAt) }

// Latency returns end-to-end latency.
func (r *Request) Latency() sim.Duration { return r.CompletedAt.Sub(r.EnqueuedAt) }

// Engine is one serving deployment bound to a GPU allocation.
type Engine struct {
	model  ModelSpec
	engine *sim.Engine
	cat    *hardware.Catalog

	alloc *cluster.GPUAlloc
	gpus  int
	// speedup is the FLOPS ratio of the allocated GPU type vs RefGPU.
	speedup float64

	// The engine owns its scratch, so a request's trip through it allocates
	// nothing in steady state. queue pops by the qHead cursor (queue[qHead:]
	// is what waits) and slides down when its array fills; active is filtered
	// in place; finished is the completion event's buffer, detached while its
	// callbacks run; completionFn is the method value e.onCompletionEvent,
	// built once. (Request records are the caller's: an engine lives only as
	// long as a job holds a ref on it, too short to amortize a slab, and the
	// caller gets each one back in its OnComplete.)
	queue        []*Request
	qHead        int
	active       []*Request
	finished     []*Request
	completionFn func()
	kvUsed       int

	// replan event for the next completion under current rates.
	nextDone   sim.Event
	lastUpdate sim.Time

	// down marks the engine crashed and reloading weights: admission and
	// rate planning pause until the reload completes. Requests submitted
	// meanwhile queue normally.
	down bool

	// Stats.
	completed      int
	tokensServed   float64
	busyIntegral   float64 // ∫ utilization dt, for mean-utilization stats
	drainCallbacks []func()
}

// NewEngine creates an engine serving model on the given allocation. The
// allocation must be non-empty and homogeneous (cluster guarantees type
// homogeneity per alloc).
func NewEngine(se *sim.Engine, cat *hardware.Catalog, model ModelSpec, alloc *cluster.GPUAlloc) (*Engine, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if alloc == nil || alloc.Count() == 0 {
		return nil, fmt.Errorf("llmsim: engine %s needs at least one GPU", model.Name)
	}
	// Pre-size the request lists past the append growth ramp — serving
	// engines see continuous traffic from their first admission — out of one
	// block; a list that outgrows its third moves to an array of its own.
	const listCap = 16
	lists := make([]*Request, 3*listCap)
	e := &Engine{
		model:    model,
		engine:   se,
		cat:      cat,
		queue:    lists[0:0:listCap],
		active:   lists[listCap : listCap : 2*listCap],
		finished: lists[2*listCap : 2*listCap : 3*listCap],
	}
	e.completionFn = e.onCompletionEvent
	e.adoptAlloc(alloc)
	return e, nil
}

func (e *Engine) adoptAlloc(alloc *cluster.GPUAlloc) {
	e.alloc = alloc
	e.gpus = alloc.Count()
	gt := alloc.GPUs()[0].Spec.Type
	e.speedup = e.cat.SpeedupVs(gt, e.model.RefGPU)
	e.lastUpdate = e.engine.Now()
}

// GPUs returns the current GPU count.
func (e *Engine) GPUs() int { return e.gpus }

// KVCapacity returns total KV-cache token capacity.
func (e *Engine) KVCapacity() int { return e.gpus * e.model.KVTokensPerGPU }

// KVUsed returns reserved KV tokens.
func (e *Engine) KVUsed() int { return e.kvUsed }

// QueueDepth returns requests waiting for admission.
func (e *Engine) QueueDepth() int { return len(e.queue) - e.qHead }

// ActiveCount returns requests currently being served.
func (e *Engine) ActiveCount() int { return len(e.active) }

// Completed returns the number of finished requests.
func (e *Engine) Completed() int { return e.completed }

// TokensServed returns total work units processed.
func (e *Engine) TokensServed() float64 { return e.tokensServed }

// aggregateRate returns total work-units/s the engine can process now.
func (e *Engine) aggregateRate() float64 {
	return float64(e.gpus) * e.model.AggTokensPerGPUSec * e.speedup
}

// perSeqCap returns the single-sequence rate cap.
func (e *Engine) perSeqCap() float64 {
	return e.model.SeqTokensPerSec * e.speedup
}

// currentRates returns the per-sequence processing rate under processor
// sharing with a per-sequence cap, and the implied utilization.
func (e *Engine) currentRates() (perSeq float64, util float64) {
	n := len(e.active)
	if n == 0 {
		return 0, 0
	}
	agg := e.aggregateRate()
	perSeq = math.Min(e.perSeqCap(), agg/float64(n))
	util = perSeq * float64(n) / agg
	return perSeq, util
}

// Submit enqueues a request. Requests with no tokens at all complete
// immediately (deferred, to keep callback ordering sane).
func (e *Engine) Submit(r *Request) {
	if r == nil {
		panic("llmsim: nil request")
	}
	if r.PromptTokens < 0 || r.OutputTokens < 0 {
		panic(fmt.Sprintf("llmsim: request %s with negative tokens", r.ID))
	}
	r.EnqueuedAt = e.engine.Now()
	r.totalWork = float64(r.PromptTokens)*e.model.PrefillWeight + float64(r.OutputTokens)
	r.work = r.totalWork
	r.kvTokens = r.PromptTokens + r.OutputTokens
	if r.totalWork == 0 {
		r.AdmittedAt = r.EnqueuedAt
		e.engine.Defer(func() { e.complete(r) })
		return
	}
	if e.qHead > 0 && len(e.queue) == cap(e.queue) {
		// Slide what still waits over the popped prefix instead of growing:
		// a queue that never quite drains keeps reusing one array.
		n := copy(e.queue, e.queue[e.qHead:])
		clear(e.queue[n:])
		e.queue, e.qHead = e.queue[:n], 0
	}
	e.queue = append(e.queue, r)
	e.advance()
	e.admit()
	e.replan()
}

// admit moves queued requests into the active set while KV space and batch
// slots allow, FIFO. KV is reserved for prompt+output up front: a request
// that could exhaust memory mid-generation is never admitted (vLLM-style
// conservative admission).
func (e *Engine) admit() {
	if e.down {
		return
	}
	for e.qHead < len(e.queue) {
		r := e.queue[e.qHead]
		if len(e.active) >= e.model.MaxBatch {
			return
		}
		if r.kvTokens > e.KVCapacity() {
			// Impossible request: fail loudly rather than deadlock the queue.
			panic(fmt.Sprintf("llmsim: request %s needs %d KV tokens, engine capacity %d",
				r.ID, r.kvTokens, e.KVCapacity()))
		}
		if e.kvUsed+r.kvTokens > e.KVCapacity() {
			return
		}
		e.queue[e.qHead] = nil
		e.qHead++
		e.kvUsed += r.kvTokens
		r.admitted = true
		r.AdmittedAt = e.engine.Now()
		e.active = append(e.active, r)
	}
}

// advance applies progress accrued since lastUpdate under the previous rate
// plan, and updates utilization-driven device intensity.
func (e *Engine) advance() {
	now := e.engine.Now()
	dt := now.Sub(e.lastUpdate).Seconds()
	if dt > 0 && len(e.active) > 0 {
		perSeq, util := e.currentRates()
		for _, r := range e.active {
			r.work -= perSeq * dt
			if r.work < -1e-6 {
				r.work = 0
			}
			e.tokensServed += perSeq * dt
		}
		e.busyIntegral += util * dt
	}
	e.lastUpdate = now
}

// replan schedules the next completion event under current rates and sets
// device intensity accordingly.
func (e *Engine) replan() {
	e.nextDone.Cancel()
	if e.down {
		// Crashed: nothing progresses until the reload event resumes the
		// engine (Crash already zeroed device intensity).
		return
	}
	perSeq, util := e.currentRates()
	if !e.alloc.Released() {
		power := 0.0
		if len(e.active) > 0 {
			floor := e.model.ActivePowerFloor
			power = e.model.Intensity * (floor + (1-floor)*util)
		}
		e.alloc.SetIntensity(power)
	}
	if len(e.active) == 0 {
		e.notifyDrained()
		return
	}
	// Earliest finisher under the shared rate.
	soonest := math.Inf(1)
	for _, r := range e.active {
		t := r.work / perSeq
		if t < soonest {
			soonest = t
		}
	}
	if soonest < 0 {
		soonest = 0
	}
	if now := e.engine.Now(); soonest > 0 && now.Add(sim.Duration(soonest)) == now {
		// The clock cannot resolve the time left: the event would fire at now,
		// advance would see dt == 0 and nothing would ever cross the absolute
		// completion threshold — the engine re-fired forever once now was
		// large (ulp(65,580 s) ≈ 1.5e-11 s against a residue of 2e-9 work
		// units). Whatever cannot move the clock is finished.
		for _, r := range e.active {
			if now.Add(sim.Duration(r.work/perSeq)) == now {
				r.work = 0
			}
		}
		soonest = 0
	}
	e.nextDone = *e.engine.After(sim.Duration(soonest), e.completionFn)
}

func (e *Engine) onCompletionEvent() {
	e.advance()
	// Complete every request whose work hit zero (ties complete together).
	// A completion callback re-enters Submit synchronously, which appends to
	// active — so the finished requests move to their own buffer first, and
	// that buffer is detached for as long as the callbacks run.
	finished := e.finished[:0]
	e.finished = nil
	still := e.active[:0]
	for _, r := range e.active {
		if r.work <= 1e-9 {
			finished = append(finished, r)
		} else {
			still = append(still, r)
		}
	}
	clear(e.active[len(still):])
	e.active = still
	for i, r := range finished {
		// The engine is done with r once complete returns — its owner may
		// reuse the record from inside the callback — so the scratch lets go
		// of it first.
		finished[i] = nil
		e.kvUsed -= r.kvTokens
		if e.kvUsed < 0 {
			panic("llmsim: KV accounting below zero")
		}
		e.complete(r)
	}
	e.finished = finished[:0]
	e.admit()
	e.replan()
}

func (e *Engine) complete(r *Request) {
	if r.done {
		panic(fmt.Sprintf("llmsim: request %s completed twice", r.ID))
	}
	r.done = true
	r.CompletedAt = e.engine.Now()
	if r.Err == nil {
		e.completed++
	}
	if r.OnComplete != nil {
		r.OnComplete(r)
	}
}

// Resize rebinds the engine to a new allocation (grow or shrink). In-flight
// work continues; rates and KV capacity change from now on. If KV usage
// exceeds the shrunk capacity, admission stalls until enough requests
// finish — exactly the co-scheduling pressure the cluster manager reasons
// about. The old allocation is released by the caller (clustermgr owns it).
func (e *Engine) Resize(alloc *cluster.GPUAlloc) error {
	if alloc == nil || alloc.Count() == 0 {
		return fmt.Errorf("llmsim: resize of %s to empty allocation", e.model.Name)
	}
	e.advance()
	e.adoptAlloc(alloc)
	e.admit()
	e.replan()
	return nil
}

// Crash simulates the serving process dying: every active sequence loses
// its KV cache and all generation progress, re-queues ahead of waiting
// requests, and the engine spends reloadS seconds reloading weights before
// admitting again. Requests are never lost — they restart from scratch once
// the engine is back. Crashing a crashed engine is a no-op (the reload in
// progress covers it).
func (e *Engine) Crash(reloadS float64) {
	if e.down {
		return
	}
	e.advance()
	for _, r := range e.active {
		r.work = r.totalWork
		r.admitted = false
	}
	e.queue = append(append([]*Request{}, e.active...), e.queue[e.qHead:]...)
	e.qHead = 0
	clear(e.active)
	e.active = e.active[:0]
	e.kvUsed = 0
	e.down = true
	e.nextDone.Cancel()
	if !e.alloc.Released() {
		e.alloc.SetIntensity(0)
	}
	if reloadS < 0 {
		reloadS = 0
	}
	e.engine.After(sim.Duration(reloadS), func() {
		e.down = false
		e.advance()
		e.admit()
		e.replan()
	})
}

// Down reports whether the engine is crashed and reloading.
func (e *Engine) Down() bool { return e.down }

// FailNext fails one in-flight or queued request with ErrInjected — a
// transient call error. pick ∈ [0,1) selects the victim over active then
// queued requests; the request's OnComplete fires with Err set so the
// caller can retry. Returns false when the engine holds no requests.
func (e *Engine) FailNext(pick float64) bool {
	e.advance()
	n := len(e.active) + e.QueueDepth()
	if n == 0 {
		return false
	}
	idx := int(pick * float64(n))
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	var r *Request
	if idx < len(e.active) {
		r = e.active[idx]
		e.active = append(e.active[:idx], e.active[idx+1:]...)
		e.kvUsed -= r.kvTokens
		if e.kvUsed < 0 {
			panic("llmsim: KV accounting below zero")
		}
	} else {
		qi := e.qHead + idx - len(e.active)
		r = e.queue[qi]
		e.queue = append(e.queue[:qi], e.queue[qi+1:]...)
	}
	r.Err = ErrInjected
	e.complete(r)
	e.admit()
	e.replan()
	return true
}

// OnDrained registers a one-shot callback for the next time the engine has
// no active or queued requests.
func (e *Engine) OnDrained(fn func()) {
	if len(e.active) == 0 && e.QueueDepth() == 0 {
		e.engine.Defer(fn)
		return
	}
	e.drainCallbacks = append(e.drainCallbacks, fn)
}

func (e *Engine) notifyDrained() {
	if e.QueueDepth() > 0 || len(e.active) > 0 {
		return
	}
	cbs := e.drainCallbacks
	e.drainCallbacks = nil
	for _, fn := range cbs {
		fn()
	}
}

// Utilization returns the engine's instantaneous throughput utilization.
func (e *Engine) Utilization() float64 {
	_, util := e.currentRates()
	return util
}

// MeanUtilization returns time-averaged engine utilization since t0 (engine
// creation if t0 is zero).
func (e *Engine) MeanUtilization(span sim.Duration) float64 {
	if span <= 0 {
		return 0
	}
	return e.busyIntegral / span.Seconds()
}
