package llmsim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/sim"
)

func newTestEngine(t *testing.T, gpus int, spec ModelSpec) (*sim.Engine, *cluster.Cluster, *Engine) {
	t.Helper()
	se := sim.NewEngine()
	cat := hardware.DefaultCatalog()
	cl := cluster.New(se, cat)
	cl.AddVM("vm0", hardware.NDv4SKUName, false)
	alloc, err := cl.AllocGPUs(gpus, hardware.GPUA100)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(se, cat, spec, alloc)
	if err != nil {
		t.Fatal(err)
	}
	return se, cl, eng
}

// simpleSpec: 100 units/s per GPU aggregate, 50 units/s per sequence cap.
func simpleSpec() ModelSpec {
	return ModelSpec{
		Name: "test-model", ParamsB: 1,
		AggTokensPerGPUSec: 100, SeqTokensPerSec: 50,
		PrefillWeight: 0.5, KVTokensPerGPU: 1000, MaxBatch: 8,
		RefGPU: hardware.GPUA100, Intensity: 1.0,
	}
}

func TestSingleRequestLatency(t *testing.T) {
	se, _, eng := newTestEngine(t, 1, simpleSpec())
	var done *Request
	r := &Request{ID: "r0", PromptTokens: 100, OutputTokens: 50,
		OnComplete: func(r *Request) { done = r }}
	eng.Submit(r)
	se.Run()
	if done == nil {
		t.Fatal("request never completed")
	}
	// Work = 100×0.5 + 50 = 100 units at per-seq cap 50 u/s → 2 s.
	if got := done.Latency().Seconds(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("latency = %v, want 2", got)
	}
	if eng.Completed() != 1 {
		t.Fatalf("completed = %d", eng.Completed())
	}
	if eng.KVUsed() != 0 {
		t.Fatalf("KV not freed: %d", eng.KVUsed())
	}
}

func TestContinuousBatchingSharesThroughput(t *testing.T) {
	se, _, eng := newTestEngine(t, 1, simpleSpec())
	// 4 concurrent requests of 100 units each: aggregate 100 u/s, per-seq
	// share 25 u/s (below the 50 cap) → all finish together at t=4.
	var finishes []float64
	for i := 0; i < 4; i++ {
		eng.Submit(&Request{
			ID: fmt.Sprintf("r%d", i), PromptTokens: 0, OutputTokens: 100,
			OnComplete: func(r *Request) { finishes = append(finishes, se.Now().Seconds()) },
		})
	}
	se.Run()
	if len(finishes) != 4 {
		t.Fatalf("finished %d, want 4", len(finishes))
	}
	for _, f := range finishes {
		if math.Abs(f-4) > 1e-6 {
			t.Fatalf("finish times %v, want all ≈ 4", finishes)
		}
	}
}

func TestPerSequenceCapLimitsSingleStream(t *testing.T) {
	se, _, eng := newTestEngine(t, 4, simpleSpec())
	// 4 GPUs → aggregate 400 u/s, but a single stream is capped at 50 u/s.
	var latency float64
	eng.Submit(&Request{ID: "solo", OutputTokens: 100,
		OnComplete: func(r *Request) { latency = r.Latency().Seconds() }})
	se.Run()
	if math.Abs(latency-2) > 1e-9 {
		t.Fatalf("solo latency = %v, want 2 (cap-bound, not 0.25)", latency)
	}
}

func TestUtilizationReflectsBatching(t *testing.T) {
	spec := simpleSpec()
	se, cl, eng := newTestEngine(t, 1, spec)
	// Single stream: util = 50/100 = 0.5. Device intensity = util × 1.0.
	eng.Submit(&Request{ID: "a", OutputTokens: 500})
	se.RunUntil(1)
	g := cl.VMs()[0].GPUs()
	var active *cluster.GPU
	for _, gpu := range g {
		if gpu.Util().Last() > 0 {
			active = gpu
		}
	}
	if active == nil {
		t.Fatal("no GPU shows utilization")
	}
	if got := active.Util().Last(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("single-stream util = %v, want 0.5", got)
	}
	// Add a second stream: per-seq 50 each → aggregate 100 → util 1.0.
	eng.Submit(&Request{ID: "b", OutputTokens: 500})
	se.RunUntil(2)
	if got := active.Util().Last(); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("two-stream util = %v, want 1.0", got)
	}
}

func TestKVAdmissionQueues(t *testing.T) {
	se, _, eng := newTestEngine(t, 1, simpleSpec()) // KV capacity 1000
	// First request reserves 900 KV tokens; second (200) must wait.
	first := &Request{ID: "big", PromptTokens: 800, OutputTokens: 100}
	second := &Request{ID: "small", PromptTokens: 100, OutputTokens: 100}
	var secondAdmitDelay float64
	second.OnComplete = func(r *Request) { secondAdmitDelay = r.QueueDelay().Seconds() }
	eng.Submit(first)
	eng.Submit(second)
	if eng.ActiveCount() != 1 || eng.QueueDepth() != 1 {
		t.Fatalf("active=%d queue=%d, want 1/1 (KV admission)", eng.ActiveCount(), eng.QueueDepth())
	}
	se.Run()
	if secondAdmitDelay <= 0 {
		t.Fatalf("second request admitted without queueing (delay %v)", secondAdmitDelay)
	}
	if eng.Completed() != 2 {
		t.Fatalf("completed = %d, want 2", eng.Completed())
	}
}

func TestImpossibleRequestPanics(t *testing.T) {
	_, _, eng := newTestEngine(t, 1, simpleSpec())
	defer func() {
		if recover() == nil {
			t.Fatal("request exceeding total KV capacity did not panic")
		}
	}()
	eng.Submit(&Request{ID: "huge", PromptTokens: 2000, OutputTokens: 0})
}

func TestMaxBatchCap(t *testing.T) {
	spec := simpleSpec()
	spec.MaxBatch = 2
	spec.KVTokensPerGPU = 100000
	_, _, eng := newTestEngine(t, 1, spec)
	for i := 0; i < 5; i++ {
		eng.Submit(&Request{ID: fmt.Sprintf("r%d", i), OutputTokens: 100})
	}
	if eng.ActiveCount() != 2 || eng.QueueDepth() != 3 {
		t.Fatalf("active=%d queue=%d, want 2/3", eng.ActiveCount(), eng.QueueDepth())
	}
}

func TestZeroTokenRequestCompletes(t *testing.T) {
	se, _, eng := newTestEngine(t, 1, simpleSpec())
	done := false
	eng.Submit(&Request{ID: "empty", OnComplete: func(*Request) { done = true }})
	se.Run()
	if !done {
		t.Fatal("zero-token request never completed")
	}
}

func TestResizeGrowSpeedsUp(t *testing.T) {
	spec := simpleSpec()
	se, cl, eng := newTestEngine(t, 1, spec)
	// 8 concurrent: per-seq share 12.5 u/s; work 100 → 8 s unresized.
	for i := 0; i < 8; i++ {
		eng.Submit(&Request{ID: fmt.Sprintf("r%d", i), OutputTokens: 100})
	}
	// At t=4 (halfway), grow to 4 GPUs: aggregate 400, per-seq 50 (cap) →
	// remaining 50 units take 1 s. Finish at 5 s, not 8.
	se.Schedule(4, func() {
		alloc, err := cl.AllocGPUs(4, hardware.GPUA100)
		if err != nil {
			t.Fatal(err)
		}
		old := engineAllocSwap(eng, alloc)
		old.Release()
	})
	se.Run()
	if got := se.Now().Seconds(); math.Abs(got-5) > 1e-6 {
		t.Fatalf("completion at %v, want 5 (grow halved remaining time)", got)
	}
}

// engineAllocSwap resizes and returns the old alloc (test helper mirroring
// what clustermgr does).
func engineAllocSwap(e *Engine, next *cluster.GPUAlloc) *cluster.GPUAlloc {
	old := e.alloc
	if err := e.Resize(next); err != nil {
		panic(err)
	}
	return old
}

func TestResizeShrinkStallsAdmission(t *testing.T) {
	spec := simpleSpec()
	spec.KVTokensPerGPU = 500
	se, cl, eng := newTestEngine(t, 2, spec)                           // capacity 1000
	eng.Submit(&Request{ID: "a", PromptTokens: 700, OutputTokens: 50}) // KV 750
	// Shrink to 1 GPU (capacity 500): active request keeps running
	// (kvUsed 750 > 500), and a new 300-KV request must wait for the drain.
	alloc, err := cl.AllocGPUs(1, hardware.GPUA100)
	if err != nil {
		t.Fatal(err)
	}
	old := engineAllocSwap(eng, alloc)
	old.Release()
	waited := &Request{ID: "b", PromptTokens: 250, OutputTokens: 50}
	eng.Submit(waited)
	if eng.ActiveCount() != 1 || eng.QueueDepth() != 1 {
		t.Fatalf("active=%d queue=%d after shrink, want 1/1", eng.ActiveCount(), eng.QueueDepth())
	}
	se.Run()
	if eng.Completed() != 2 {
		t.Fatalf("completed = %d, want 2 (stall must clear)", eng.Completed())
	}
	if waited.QueueDelay() <= 0 {
		t.Fatal("queued request shows no admission delay")
	}
}

func TestOnDrained(t *testing.T) {
	se, _, eng := newTestEngine(t, 1, simpleSpec())
	drains := 0
	eng.OnDrained(func() { drains++ })
	se.Run()
	if drains != 1 {
		t.Fatalf("drain callbacks on idle engine = %d, want 1 (deferred)", drains)
	}
	eng.Submit(&Request{ID: "a", OutputTokens: 50})
	eng.OnDrained(func() { drains++ })
	se.Run()
	if drains != 2 {
		t.Fatalf("drain after work = %d, want 2", drains)
	}
}

func TestFIFOAdmission(t *testing.T) {
	spec := simpleSpec()
	spec.MaxBatch = 1
	se, _, eng := newTestEngine(t, 1, spec)
	var order []string
	for _, id := range []string{"a", "b", "c"} {
		id := id
		eng.Submit(&Request{ID: id, OutputTokens: 10,
			OnComplete: func(*Request) { order = append(order, id) }})
	}
	se.Run()
	if fmt.Sprint(order) != "[a b c]" {
		t.Fatalf("completion order = %v, want FIFO", order)
	}
}

func TestDefaultSpecsValid(t *testing.T) {
	for _, spec := range []ModelSpec{NVLMText(), NVLMEmbed(), Llama8B()} {
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
	}
}

func TestBaselineVsBatchedScenario(t *testing.T) {
	// The §4 insight in miniature: 16 sequential summarizations on an
	// 8-GPU NVLM engine vs 16 concurrent ones. Concurrency must give a
	// large speedup because a single stream can't utilize the engine.
	const scenes = 16
	mkReq := func(i int) *Request {
		return &Request{ID: fmt.Sprintf("s%d", i), PromptTokens: 1800, OutputTokens: 500}
	}

	// Sequential.
	seSeq, _, engSeq := newTestEngine(t, 8, NVLMText())
	var submitNext func(i int)
	submitNext = func(i int) {
		if i == scenes {
			return
		}
		r := mkReq(i)
		r.OnComplete = func(*Request) { submitNext(i + 1) }
		engSeq.Submit(r)
	}
	submitNext(0)
	seSeq.Run()
	seqTime := seSeq.Now().Seconds()

	// Concurrent.
	sePar, _, engPar := newTestEngine(t, 8, NVLMText())
	for i := 0; i < scenes; i++ {
		engPar.Submit(mkReq(i))
	}
	sePar.Run()
	parTime := sePar.Now().Seconds()

	if engSeq.Completed() != scenes || engPar.Completed() != scenes {
		t.Fatal("not all requests completed")
	}
	speedup := seqTime / parTime
	if speedup < 3 {
		t.Fatalf("batching speedup = %.2f (seq %.1fs, par %.1fs), want > 3",
			speedup, seqTime, parTime)
	}
	// Sequential must badly underutilize: mean util below 20%.
	if u := engSeq.MeanUtilization(sim.Duration(seqTime)); u > 0.2 {
		t.Fatalf("sequential mean utilization = %.2f, want < 0.2", u)
	}
}

// TestResidualWorkBelowClockResolutionCompletes reproduces the state a shard
// reached after ~65,000 sim-s: an active request whose remaining work, at the
// current rate, takes less time than the clock can represent at now. The event
// for it lands on now itself, advance sees dt == 0, and under the absolute
// 1e-9 completion threshold the engine re-fired that event forever.
func TestResidualWorkBelowClockResolutionCompletes(t *testing.T) {
	spec := simpleSpec()
	spec.AggTokensPerGPUSec, spec.SeqTokensPerSec = 10_000, 450 // the daemon's per-sequence rate
	se, _, eng := newTestEngine(t, 1, spec)
	se.SetEventLimit(10_000)
	completed := 0
	var slow *Request
	se.Schedule(65_580, func() {
		for i := 0; i < 2; i++ {
			eng.Submit(&Request{ID: fmt.Sprintf("r%d", i), PromptTokens: 100, OutputTokens: 50,
				OnComplete: func(*Request) { completed++ }})
		}
		slow = &Request{ID: "slow", PromptTokens: 100, OutputTokens: 500,
			OnComplete: func(*Request) { completed++ }}
		eng.Submit(slow)
		// Leave the first two the residue observed in the daemon: above the
		// absolute threshold, and 2.18e-9 units at 450 units/s is 4.8e-12 s,
		// a third of ulp(65,580 s).
		for _, r := range eng.active[:2] {
			r.work = 2.18e-9
		}
		eng.replan()
	})
	se.Run() // panics at the event limit if the engine livelocks
	if completed != 3 {
		t.Fatalf("completed %d of 3 requests", completed)
	}
	if slow.Latency().Seconds() < 1 {
		t.Fatalf("the request with real work left finished after %v s; only the unresolvable ones may be cut short",
			slow.Latency().Seconds())
	}
	if eng.KVUsed() != 0 || eng.ActiveCount() != 0 {
		t.Fatalf("engine not drained: kv=%d active=%d", eng.KVUsed(), eng.ActiveCount())
	}
}

// TestEngineScratchUnderBacklogAndReentry drives the engine's reused buffers
// the two ways that could corrupt them: a queue that never drains (the cursor
// must slide instead of growing, FIFO kept) and completion callbacks that
// submit from inside the completion event (the finished buffer is in use while
// active and queue change under it).
func TestEngineScratchUnderBacklogAndReentry(t *testing.T) {
	spec := simpleSpec()
	spec.MaxBatch = 2
	se, _, eng := newTestEngine(t, 1, spec)
	const total = 500
	var order []string
	submitted := 0
	var submit func()
	submit = func() {
		id := fmt.Sprintf("r%03d", submitted)
		submitted++
		eng.Submit(&Request{ID: id, PromptTokens: 10, OutputTokens: 5, OnComplete: func(r *Request) {
			order = append(order, r.ID)
			// Two more for every completion until the total is out: the
			// backlog grows, and each Submit here re-enters the engine.
			for n := 0; n < 2 && submitted < total; n++ {
				submit()
			}
		}})
	}
	for i := 0; i < 4; i++ {
		submit()
	}
	se.Run()
	if len(order) != total {
		t.Fatalf("completed %d of %d", len(order), total)
	}
	for i, id := range order {
		if want := fmt.Sprintf("r%03d", i); id != want {
			t.Fatalf("completion %d is %s, want %s (FIFO admission, equal work)", i, id, want)
		}
	}
	if eng.QueueDepth() != 0 || eng.ActiveCount() != 0 || eng.KVUsed() != 0 {
		t.Fatalf("engine not drained: queue=%d active=%d kv=%d", eng.QueueDepth(), eng.ActiveCount(), eng.KVUsed())
	}
	// The backlog peaked near total/2 while ~total requests passed through.
	if c := cap(eng.queue); c > total {
		t.Fatalf("queue array grew to %d for %d requests: popped slots are not reused", c, total)
	}
}
