package main

import (
	"encoding/json"
	"slices"
	"strconv"
	"sync"
	"time"
)

// The reference host's cores slow down and speed up by ±15 % over minutes
// (neighbours on the same machine), and every wall-clock reading moves with
// them — far more than any bound worth gating on. So the ledger measures the
// host's speed of the moment beside every epoch, with a fixed loop of its
// own, and reports every time as it would read at the reference speed:
//
//	reported time = measured time × refCalibrationNs / calibration ns now
//
// The loop is the harness's, not the repo's: standard-library work (JSON
// decode and encode, a sort, a string-keyed map) over fixed data, so no
// change to the repo can move it, and it runs on as many goroutines as the
// load has clients, so it meets the same contention between the cores.

// refCalibrationNs is one calibration op on the quiet reference host. It
// only fixes the scale of the reported times ("µs at reference speed");
// comparisons between two commits do not depend on it.
const refCalibrationNs = 25000

// calibrationOps is how many ops each goroutine runs per reading (~1/2 ms).
const calibrationOps = 12

// calibDoc is shaped like a job envelope; the bytes below are what it decodes.
type calibDoc struct {
	ID     string  `json:"id"`
	Tenant string  `json:"tenant"`
	Status string  `json:"status"`
	Delay  float64 `json:"delay"`
	Result struct {
		Name      string            `json:"name"`
		Makespan  float64           `json:"makespan"`
		Energy    float64           `json:"energy"`
		Cost      float64           `json:"cost"`
		Tasks     int               `json:"tasks"`
		Decisions map[string]string `json:"decisions"`
	} `json:"result"`
	Inputs []struct {
		Name  string             `json:"name"`
		Kind  string             `json:"kind"`
		Attrs map[string]float64 `json:"attrs"`
	} `json:"inputs"`
}

var calibJSON = []byte(`{"id":"job-00004711","tenant":"heidi","status":"done","delay":0.4375,` +
	`"result":{"name":"murakkab/MIN_COST","makespan":27.359332839235798,"energy":8.996528907424777,` +
	`"cost":0.0417,"tasks":6,"decisions":{"speech-to-text":"whisper-large @ 1xA100 x2",` +
	`"object-detection":"detr @ 8 cores x4","summarize":"nvlm-d-72b @ 8xA100 x1"}},` +
	`"inputs":[{"name":"video0.mov","kind":"video","attrs":{"duration_s":60,"scene_len_s":30,"scenes":2,"frames_per_scene":24}},` +
	`{"name":"topic0","kind":"topic","attrs":{"queries":3}},{"name":"doc0.pdf","kind":"document","attrs":{"tokens":800}}]}`)

// calibState is one goroutine's fixed data and scratch.
type calibState struct {
	keys   []string
	floats []float64
	work   []float64
	sink   int
}

func newCalibState() *calibState {
	st := &calibState{keys: make([]string, 96), floats: make([]float64, 192), work: make([]float64, 192)}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range st.floats {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		st.floats[i] = float64(x>>11) / (1 << 53)
	}
	for i := range st.keys {
		st.keys[i] = "capability-" + strconv.Itoa(i*7919)
	}
	return st
}

func (st *calibState) op() {
	var d calibDoc
	if err := json.Unmarshal(calibJSON, &d); err != nil {
		panic(err)
	}
	b, err := json.Marshal(&d)
	if err != nil {
		panic(err)
	}
	copy(st.work, st.floats)
	slices.Sort(st.work)
	m := make(map[string]int, len(st.keys))
	for i, k := range st.keys {
		m[k] = i
	}
	for _, k := range st.keys {
		st.sink += m[k]
	}
	st.sink += len(b) + int(st.work[0])
}

// calibrator holds the per-goroutine state between readings.
type calibrator struct {
	states [clients]*calibState
}

func newCalibrator() *calibrator {
	var c calibrator
	for i := range c.states {
		c.states[i] = newCalibState()
	}
	return &c
}

// read runs the loop on every goroutine at once and returns the mean ns per
// op.
func (c *calibrator) read() float64 {
	var wg sync.WaitGroup
	var elapsed [clients]time.Duration
	for i, st := range c.states {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			for n := 0; n < calibrationOps; n++ {
				st.op()
			}
			elapsed[i] = time.Since(t0)
		}()
	}
	wg.Wait()
	var total time.Duration
	for _, e := range elapsed {
		total += e
	}
	return float64(total.Nanoseconds()) / (clients * calibrationOps)
}

// speed collects the calibration readings of a traced pass or a set of
// micro-runs (the timed run keeps its own, per epoch: timings in run.go). The
// factor the times are multiplied by (and rates divided by) is the reference
// over the median reading: the host's speed drifts over minutes, a run lasts
// seconds, and the median drops the readings that collided with a GC cycle or
// a hiccup — which the per-epoch medians of the metrics drop too.
type speed struct {
	cal      *calibrator
	readings []float64
}

func newSpeed(capacity int) *speed {
	return &speed{cal: newCalibrator(), readings: make([]float64, 0, capacity)}
}

func (s *speed) sample() { s.readings = append(s.readings, s.cal.read()) }

func (s *speed) factor() float64 { return speedFactor(s.readings) }

// speedFactor is what a set of calibration readings says measured times must
// be multiplied by to read as at reference speed.
func speedFactor(readings []float64) float64 {
	if len(readings) == 0 {
		return 1
	}
	return refCalibrationNs / median(readings)
}
