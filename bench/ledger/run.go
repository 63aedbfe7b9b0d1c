package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/router"
)

const (
	// clients is the closed-loop client count: one per core of the reference
	// host (nproc = 2), so the load never asks for more threads than cores.
	clients = 2
	// opDeadline is the per-request watchdog. The seed can wedge a shard
	// (README, "Seed defects"); a wedged epoch must surface as failures, not
	// as a hang.
	opDeadline = 5 * time.Second
	// sampleEvery picks the deterministic 1-in-16 sample (by job index) whose
	// responses are fully decoded for the sim-quality metrics.
	sampleEvery = 16
	// statsEvery is how often a routed_poll client scrapes /v1/stats.
	statsEvery = 64
)

var (
	doneMarker   = []byte(`"status":"done"`)
	makespanKey  = []byte(`"makespan_s":`)
	gpuEnergyKey = []byte(`"gpu_energy_wh":`)
	cpuEnergyKey = []byte(`"cpu_energy_wh":`)
	failedMarker = []byte(`"status":"failed"`)
	cancelMarker = []byte(`"status":"canceled"`)
	idMarker     = []byte(`"id":"`)
)

// respWriter is the minimal reusable http.ResponseWriter the clients hand to
// ServeHTTP: no sockets, so the numbers measure the repo and not the kernel.
type respWriter struct {
	hdr  http.Header
	code int
	buf  []byte
}

func (w *respWriter) Header() http.Header { return w.hdr }
func (w *respWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *respWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.buf = append(w.buf, p...)
	return len(p), nil
}
func (w *respWriter) reset() {
	clear(w.hdr)
	w.code = 0
	w.buf = w.buf[:0]
}

// client is one closed-loop submitter. Everything here is owned by the
// client's goroutine while a phase runs and read by the runner only after
// the phase reported done; an abandoned (wedged) client is never read again.
type client struct {
	w respWriter
	// opStart is the wall clock (ns since runner start) of the request in
	// flight, 0 when idle; the watchdog reads it.
	opStart atomic.Int64

	lat    []float32 // timed latencies, µs, in completion order
	failed int
	// sim-quality sums over the timed jobs, scanned out of every response.
	makespanSum, energySum float64
	polls                  int
	pollJobs               int
	// sample arena: bodies of the 1-in-16 jobs, decoded after the phase.
	sampleBuf []byte
	sampleEnd []int
}

// runner measures one workload at one seed.
type runner struct {
	s     spec
	seed  int64
	start time.Time
	cl    [clients]*client
	// build provisions an epoch's server (the spec's, unless a test
	// substitutes a handler that misbehaves).
	build func() (server, error)
	// stats scrapes a server's /v1/stats (readStats through statsClient,
	// unless a test's handler has none).
	stats       func(h http.Handler, routed bool) (statsView, error)
	statsClient *client
	// deadline is the per-request watchdog; a phase waits deadline/4 more,
	// after canceling its context, for handlers that honour cancellation.
	deadline time.Duration
	// cal reads the host's speed beside every epoch; endToEnd scales the
	// run's times by the readings (calibrate.go).
	cal *calibrator

	// results
	attempted, failed int
	wedged            int // epochs abandoned by the watchdog
	// spent is the run's measuring budget used so far: the timed phases, plus
	// all of a wedged epoch's wall time (it has no timed phase to charge).
	spent          time.Duration
	mallocs, bytes uint64
	done           int // timed jobs that completed
	// all holds every epoch's clock readings, quiet those of the epochs during
	// which the hypervisor took no CPU time from this machine; timings picks.
	all, quiet      timings
	polls, pollJobs int
	samples         int
	// stealFrac is the share of the machine's CPU time the hypervisor took away
	// while the run measured (host.steal_frac).
	stealFrac   float64
	makespanSum float64
	energySum   float64
	counters    counters
	checkErrs   []string
}

// timings is what a run reads off a clock, as measured: one value per epoch,
// and the latency chunks. endToEnd scales their medians to reference speed.
type timings struct {
	setup       []float64 // seconds outside the timed phase
	rate        []float64 // timed jobs per second
	cpu         []float64 // CPU µs per timed job
	calibration []float64 // ns per calibration op beside the epoch
	lat         *chunker
}

func newTimings(epochsCap int) timings {
	return timings{
		setup: make([]float64, 0, epochsCap), rate: make([]float64, 0, epochsCap), cpu: make([]float64, 0, epochsCap),
		calibration: make([]float64, 0, epochsCap), lat: newChunker(),
	}
}

// timings picks the readings the run reports. While another guest runs on
// this machine's cores a vCPU stands still for milliseconds at a time, and an
// epoch in which that happened reads the neighbour, not the program — its
// tail latency most of all. So the quiet epochs are the measurement, provided they
// filled at least one latency chunk; in a phase so disturbed that they did
// not, there is nothing better than everything.
func (r *runner) timings() *timings {
	if len(r.quiet.lat.p99s) > 0 {
		return &r.quiet
	}
	return &r.all
}

// counter indexes the monotone totals the ledger reads from /v1/stats: one
// list serves the scrape, the before/after delta and the metrics.
type counter int

const (
	cJobs counter = iota // completed jobs
	cEvents
	cOverflow
	cWheel
	cPlanHits
	cDecompHits
	cSearches
	cSingleflight
	cConflicts
	cInternHits
	cInternMisses
	cScratchHits
	cScratchMisses
	cTelemetryPoints
	numCounters
)

// statsView is one scrape of /v1/stats, summed over the server's shards
// (and, behind the router, its nodes).
type statsView struct {
	sum         [numCounters]uint64
	peakPending int
	shardSimMax float64
	nodeJobs    map[string]uint64 // completed jobs per router node
}

// counters accumulates statsView deltas over the timed phases (sum and
// nodeJobs are differences, the other two running maxima).
type counters struct {
	statsView
	queueDelaySum float64 // over the decoded sample
}

func newRunner(s spec, seed int64) *runner {
	const epochsCap = 1 << 13
	r := &runner{
		s: s, seed: seed, start: time.Now(), build: s.build, statsClient: newClient(), deadline: opDeadline,
		cal: newCalibrator(), all: newTimings(epochsCap), quiet: newTimings(epochsCap),
	}
	for i := range r.cl {
		r.cl[i] = newClient()
	}
	r.stats = r.readStats
	r.counters.nodeJobs = map[string]uint64{}
	return r
}

func newClient() *client {
	return &client{
		w:   respWriter{hdr: make(http.Header, 2), buf: make([]byte, 0, 8<<10)},
		lat: make([]float32, 0, 1024), sampleBuf: make([]byte, 0, 64<<10), sampleEnd: make([]int, 0, 64),
	}
}

// measure runs epochs until the timed phases add up to d. Epoch e always
// sends the same bodies for the same seed, so two commits measured for the
// same time differ only in how far they get. A wedged epoch spends its whole
// wall time from the same budget, so a build that wedges every epoch still
// ends after about d.
func (r *runner) measure(d time.Duration) error {
	t0 := time.Now()
	stolen0, _ := stolenTicks()
	for e := 0; r.spent < d; e++ {
		if err := r.epoch(e); err != nil {
			return err
		}
	}
	if stolen1, ok := stolenTicks(); ok {
		r.stealFrac = float64(stolen1-stolen0) / 100 / (time.Since(t0).Seconds() * float64(runtime.NumCPU()))
	}
	return nil
}

// epoch builds a fresh server, warms it, times the rest of the epoch's jobs
// and reads the server's counters either side of the timed phase.
func (r *runner) epoch(e int) error {
	t0 := time.Now()
	stolen0, _ := stolenTicks()
	bodies, err := r.s.bodies(r.seed, e)
	if err != nil {
		return err
	}
	srv, err := r.build()
	if err != nil {
		return fmt.Errorf("%s: building server: %w", r.s.name, err)
	}
	base := e * r.s.epochJobs
	r.attempted += len(bodies)
	ok := r.phase(srv.h, bodies[:r.s.warmup], base, false)
	var timed, calibrating time.Duration
	var rate, cpu, reading float64
	if ok {
		var before, after statsView
		if before, err = r.stats(srv.h, r.s.routed); err != nil {
			return err
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		cpu0 := cpuTime()
		p0 := time.Now()
		ok = r.phase(srv.h, bodies[r.s.warmup:], base+r.s.warmup, true)
		timed = time.Since(p0)
		cpu1 := cpuTime()
		runtime.ReadMemStats(&ms1)
		if ok {
			if after, err = r.stats(srv.h, r.s.routed); err != nil {
				return err
			}
			c0 := time.Now()
			reading = r.cal.read()
			calibrating = time.Since(c0)
			n := float64(len(bodies) - r.s.warmup)
			r.spent += timed
			rate, cpu = n/timed.Seconds(), float64((cpu1-cpu0).Nanoseconds())/1e3/n
			r.mallocs += ms1.Mallocs - ms0.Mallocs
			r.bytes += ms1.TotalAlloc - ms0.TotalAlloc
			r.counters.add(before, after)
		}
	}
	if ok {
		srv.close()
		r.collect()
	} else {
		// A wedged server is abandoned without Close: Close drains, and a
		// wedged shard never drains. The whole epoch counts as failed and its
		// samples are dropped; the clients may still be inside the handler,
		// so they are replaced, not reused.
		r.wedged++
		r.failed += len(bodies)
		for i := range r.cl {
			r.cl[i] = newClient()
		}
		timed = 0
		r.spent += time.Since(t0)
	}
	setup := (time.Since(t0) - timed - calibrating).Seconds()
	record := []*timings{&r.all}
	if stolen1, _ := stolenTicks(); stolen1 == stolen0 {
		record = append(record, &r.quiet)
	}
	for _, t := range record {
		t.setup = append(t.setup, setup)
		if !ok {
			continue
		}
		t.rate, t.cpu, t.calibration = append(t.rate, rate), append(t.cpu, cpu), append(t.calibration, reading)
		for _, c := range r.cl {
			for _, l := range c.lat {
				t.lat.add(l)
			}
		}
	}
	for _, c := range r.cl {
		c.lat = c.lat[:0]
	}
	return nil
}

// phase sends bodies through h with the closed-loop clients and reports
// whether every client came back. It returns false when the watchdog had to
// cancel the phase.
func (r *runner) phase(h http.Handler, bodies [][]byte, base int, timed bool) bool {
	if len(bodies) == 0 {
		return true
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var next atomic.Int64
	done := make(chan struct{}, clients)
	for _, c := range r.cl {
		go func(c *client) {
			defer func() { done <- struct{}{} }()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(bodies) {
					return
				}
				t0 := time.Now()
				c.opStart.Store(int64(t0.Sub(r.start)) + 1)
				ok := r.op(ctx, h, c, bodies[i], base+i, timed)
				c.opStart.Store(0)
				if !ok {
					c.failed++
				} else if timed {
					c.lat = append(c.lat, float32(time.Since(t0).Nanoseconds())/1e3)
				}
			}
		}(c)
	}
	tick := time.NewTicker(r.deadline / 16)
	defer tick.Stop()
	var grace <-chan time.Time
	for left := clients; left > 0; {
		select {
		case <-done:
			left--
		case <-tick.C:
			now := int64(time.Since(r.start))
			for _, c := range r.cl {
				if s := c.opStart.Load(); s != 0 && now-s > int64(r.deadline) && grace == nil {
					cancel()
					grace = time.After(r.deadline / 4)
				}
			}
		case <-grace:
			return false
		}
	}
	return ctx.Err() == nil
}

// awaitDone polls until the job envelope in resp (the POST's answer) reads
// done: get performs one GET of the job. It fails on a non-200 answer, a job
// that ended failed or canceled, or the end of ctx.
func awaitDone(ctx context.Context, resp []byte, get func() (int, []byte)) ([]byte, error) {
	for !bytes.Contains(resp, doneMarker) {
		var code int
		if code, resp = get(); code != http.StatusOK || bytes.Contains(resp, failedMarker) || bytes.Contains(resp, cancelMarker) {
			return nil, fmt.Errorf("polling job: status %d: %s", code, resp)
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if !bytes.Contains(resp, doneMarker) {
			runtime.Gosched()
		}
	}
	return resp, nil
}

// op performs one job: POST, and when the POST did not wait, poll until
// terminal. It reports whether the job completed with status done.
func (r *runner) op(ctx context.Context, h http.Handler, c *client, body []byte, idx int, timed bool) bool {
	code, resp := c.do(ctx, h, http.MethodPost, "/v1/jobs", body)
	if code != http.StatusOK && !(r.s.routed && code == http.StatusAccepted) {
		return false
	}
	if r.s.routed {
		target := "/v1/jobs/" + jobID(resp)
		c.pollJobs++
		var err error
		if resp, err = awaitDone(ctx, resp, func() (int, []byte) {
			c.polls++
			return c.do(ctx, h, http.MethodGet, target, nil)
		}); err != nil {
			return false
		}
	} else if !bytes.Contains(resp, doneMarker) {
		return false
	}
	if timed {
		makespan, ok1 := numberAfter(resp, makespanKey)
		gpu, ok2 := numberAfter(resp, gpuEnergyKey)
		cpu, ok3 := numberAfter(resp, cpuEnergyKey)
		if !ok1 || !ok2 || !ok3 {
			return false
		}
		c.makespanSum += makespan
		c.energySum += gpu + cpu
	}
	if timed && idx%sampleEvery == 0 {
		c.sampleBuf = append(c.sampleBuf, resp...)
		c.sampleEnd = append(c.sampleEnd, len(c.sampleBuf))
	}
	if r.s.routed && idx%statsEvery == 0 {
		if code, _ := c.do(ctx, h, http.MethodGet, "/v1/stats", nil); code != http.StatusOK {
			return false
		}
	}
	return true
}

// do runs one in-process request and returns the status and body; the body
// aliases the client's buffer and is valid until the next call.
func (c *client) do(ctx context.Context, h http.Handler, method, target string, body []byte) (int, []byte) {
	var req *http.Request
	var err error
	if body != nil {
		req, err = http.NewRequestWithContext(ctx, method, target, bytes.NewReader(body))
	} else {
		req, err = http.NewRequestWithContext(ctx, method, target, nil)
	}
	if err != nil {
		return 0, nil
	}
	c.w.reset()
	h.ServeHTTP(&c.w, req)
	return c.w.code, c.w.buf
}

// jobID extracts the "id" field of a job envelope without decoding it.
func jobID(resp []byte) string {
	i := bytes.Index(resp, idMarker)
	if i < 0 {
		return ""
	}
	rest := resp[i+len(idMarker):]
	j := bytes.IndexByte(rest, '"')
	if j <= 0 {
		return ""
	}
	return string(rest[:j])
}

// numberAfter parses the JSON number that follows key in resp. The scan is
// cheap enough (~0.1 µs) to run on every timed response, which is what lets
// the sim-quality means use all timed jobs instead of the decoded sample.
func numberAfter(resp, key []byte) (float64, bool) {
	i := bytes.Index(resp, key)
	if i < 0 {
		return 0, false
	}
	rest := resp[i+len(key):]
	j := 0
	for j < len(rest) && rest[j] != ',' && rest[j] != '}' {
		j++
	}
	f, err := strconv.ParseFloat(string(rest[:j]), 64)
	return f, err == nil
}

// collect folds the clients' phase results into the runner (after a timed
// phase that completed) and decodes the sampled responses.
func (r *runner) collect() {
	for _, c := range r.cl {
		r.done += len(c.lat)
		r.failed += c.failed
		r.polls += c.polls
		r.pollJobs += c.pollJobs
		r.makespanSum += c.makespanSum
		r.energySum += c.energySum
		start := 0
		for _, end := range c.sampleEnd {
			var st api.JobStatusResponse
			if err := json.Unmarshal(c.sampleBuf[start:end], &st); err != nil {
				r.fail("sampled response does not decode: %v", err)
			} else if st.Result == nil || st.Result.TasksCompleted <= 0 || st.Status != "done" {
				r.fail("sampled job %s: status %q without completed tasks", st.ID, st.Status)
			} else {
				r.samples++
				r.counters.queueDelaySum += st.QueueDelayS
			}
			start = end
		}
		c.failed, c.polls, c.pollJobs = 0, 0, 0
		c.makespanSum, c.energySum = 0, 0
		c.sampleBuf, c.sampleEnd = c.sampleBuf[:0], c.sampleEnd[:0]
	}
}

// fail records a correctness violation; the command exits non-zero on any.
func (r *runner) fail(format string, args ...any) {
	if len(r.checkErrs) < 20 {
		r.checkErrs = append(r.checkErrs, r.s.name+": "+fmt.Sprintf(format, args...))
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (v *statsView) addPool(ps api.PoolStats) {
	for c, n := range map[counter]uint64{
		cJobs: uint64(ps.Completed), cEvents: ps.EventsProcessed, cOverflow: ps.OverflowEvents, cWheel: ps.WheelEvents,
		cSearches: uint64(ps.PlanSearches), cSingleflight: uint64(ps.SingleflightHits), cConflicts: uint64(ps.PlanConflicts),
		cInternHits: ps.KeyInternHits, cInternMisses: ps.KeyInternMisses,
		cScratchHits: ps.ScratchPoolHits, cScratchMisses: ps.ScratchPoolMisses,
	} {
		v.sum[c] += n
	}
	v.peakPending = max(v.peakPending, ps.PeakPending)
	for _, sh := range ps.Shards {
		v.sum[cPlanHits] += uint64(sh.PlanCacheHits)
		v.sum[cDecompHits] += uint64(sh.DecompCacheHits)
		// Retained plus compacted: every change point the shard ever wrote.
		v.sum[cTelemetryPoints] += uint64(sh.TelemetryPoints + sh.CompactedPoints)
		v.shardSimMax = max(v.shardSimMax, sh.SimTimeS)
	}
}

// readStats scrapes GET /v1/stats through the handler.
func (r *runner) readStats(h http.Handler, routed bool) (statsView, error) {
	code, body := r.statsClient.do(context.Background(), h, http.MethodGet, "/v1/stats", nil)
	if code != http.StatusOK {
		return statsView{}, fmt.Errorf("GET /v1/stats: status %d", code)
	}
	var v statsView
	if routed {
		var cs router.ClusterStats
		if err := json.Unmarshal(body, &cs); err != nil {
			return v, fmt.Errorf("decoding cluster stats: %w", err)
		}
		v.nodeJobs = make(map[string]uint64, len(cs.Nodes))
		for _, n := range cs.Nodes {
			v.addPool(n.Pool)
			v.nodeJobs[n.Name] = uint64(n.Pool.Completed)
		}
		return v, nil
	}
	var ps api.PoolStats
	if err := json.Unmarshal(body, &ps); err != nil {
		return v, fmt.Errorf("decoding pool stats: %w", err)
	}
	v.addPool(ps)
	return v, nil
}

func (c *counters) add(before, after statsView) {
	for i := range c.sum {
		c.sum[i] += after.sum[i] - before.sum[i]
	}
	c.peakPending = max(c.peakPending, after.peakPending)
	c.shardSimMax = max(c.shardSimMax, after.shardSimMax)
	for name, n := range after.nodeJobs {
		c.nodeJobs[name] += n - before.nodeJobs[name]
	}
}
