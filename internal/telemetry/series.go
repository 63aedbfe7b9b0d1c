// Package telemetry records what the simulated cluster did: piecewise-
// constant time series (utilization, power), integrated quantities (energy,
// cost), and per-agent execution spans. It also renders the artifacts the
// paper's Figure 3 shows — per-agent Gantt timelines and CPU/GPU utilization
// curves — as ASCII and CSV.
package telemetry

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"strings"
)

// StepSeries is a right-continuous piecewise-constant function of simulated
// time: the value set at time t holds on [t, next-set-time). Samples must be
// appended in nondecreasing time order, which every simulation source
// naturally satisfies.
//
// Alongside the change points the series maintains a cumulative-integral
// index (cum[i] = ∫ from times[0] to times[i]), kept up to date in O(1) per
// append, so Integral/Mean over any window are O(log n) rather than a full
// scan — the telemetry analogue of aggregating online instead of re-merging
// raw samples at report time.
type StepSeries struct {
	times  []float64
	values []float64
	// cum[i] is the integral of the series from times[0] to times[i]; it only
	// depends on values[0..i-1], so overwriting the value at the last change
	// point never invalidates it.
	cum []float64
}

// initialSeriesCap is the change-point capacity a fresh series starts with.
// Most per-device series in the benchmarks accumulate tens of points, so a
// small starting slab absorbs the first few doublings that otherwise
// dominate the allocation profile of Set.
const initialSeriesCap = 8

// seriesBox fuses a fresh series' header and initial slab into one
// allocation; grow replaces the slices with a heap slab and the inline
// buffer rides along unused (192 B, only on series that outgrow it).
type seriesBox struct {
	s   StepSeries
	buf [3 * initialSeriesCap]float64
}

// NewStepSeries returns a series with an initial value holding from t=0.
// The header and the initial change-point slab come from a single
// allocation; clusters build dozens of gauge series per testbed, so the
// constructor's object count shows up directly in serving-path profiles.
func NewStepSeries(initial float64) *StepSeries {
	b := &seriesBox{}
	s := &b.s
	c := initialSeriesCap
	s.times = b.buf[0:1:c]
	s.values = b.buf[c : c+1 : 2*c]
	s.cum = b.buf[2*c : 2*c+1 : 3*c]
	s.values[0] = initial
	return s
}

// initStepSeries is NewStepSeries into caller-owned storage (a value field),
// sharing the same single-slab layout via realloc.
func (s *StepSeries) initStepSeries(initial float64) {
	s.realloc(initialSeriesCap, 1)
	s.values[0] = initial
}

// realloc carves times/values/cum (each length n, capacity c) out of one
// backing array: a series costs one slab allocation instead of three, and a
// capacity doubling moves all three slices in a single copy. Existing
// contents are preserved. The full-slice expressions cap each slice so an
// append past c can never bleed into its neighbour.
func (s *StepSeries) realloc(c, n int) {
	buf := make([]float64, 3*c)
	nt := buf[0:n:c]
	nv := buf[c : c+n : 2*c]
	nc := buf[2*c : 2*c+n : 3*c]
	copy(nt, s.times)
	copy(nv, s.values)
	copy(nc, s.cum)
	s.times, s.values, s.cum = nt, nv, nc
}

// grow extends all three slices by one slot, reallocating the shared slab
// when full.
func (s *StepSeries) grow() {
	n := len(s.times)
	if n == cap(s.times) {
		c := 2 * cap(s.times)
		if c < initialSeriesCap {
			c = initialSeriesCap
		}
		s.realloc(c, n)
	}
	s.times = s.times[:n+1]
	s.values = s.values[:n+1]
	s.cum = s.cum[:n+1]
}

// Set records that the series takes value v from time t onward. Setting at a
// time earlier than the last sample panics (simulation time never rewinds).
// Setting the same time twice overwrites — the last write at an instant wins,
// matching event-queue semantics.
func (s *StepSeries) Set(t, v float64) {
	n := len(s.times)
	if n > 0 {
		last := s.times[n-1]
		if t < last {
			panic(fmt.Sprintf("telemetry: Set at t=%v before last sample t=%v", t, last))
		}
		if t == last {
			s.values[n-1] = v
			return
		}
		if s.values[n-1] == v {
			return // no change; keep the series minimal
		}
		s.grow()
		s.cum[n] = s.cum[n-1] + s.values[n-1]*(t-last)
	} else {
		s.grow()
		s.cum[n] = 0
	}
	s.times[n] = t
	s.values[n] = v
}

// AddDelta shifts the series by d from time t onward: Set(t, Last()+d). It is
// the primitive incremental aggregates are built from — each device sample
// updates a cluster-wide running series in O(1) instead of the cluster
// re-merging every per-device series at report time.
func (s *StepSeries) AddDelta(t, d float64) {
	s.Set(t, s.Last()+d)
}

// Value returns the series value at time t. Times before the first sample
// return the first value.
func (s *StepSeries) Value(t float64) float64 {
	if len(s.times) == 0 {
		return 0
	}
	// Find the last sample with time <= t.
	i := sort.SearchFloat64s(s.times, t)
	if i < len(s.times) && s.times[i] == t {
		return s.values[i]
	}
	if i == 0 {
		return s.values[0]
	}
	return s.values[i-1]
}

// Last returns the most recent value.
func (s *StepSeries) Last() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.values[len(s.values)-1]
}

// Len returns the number of stored change points.
func (s *StepSeries) Len() int { return len(s.times) }

// CompactBefore drops every change point strictly older than the last one at
// or before t and slides the retained tail to the front of the slab the series
// already owns, so a steady Set/compact cycle allocates nothing (a fresh
// exact-size slab would be full by construction, and the next Set would double
// it). Only when the tail fills under a quarter of the slab does it move to a
// new one, twice its length — that is how a burst's memory is returned. The
// point covering t is kept — it carries the value in effect at
// the watermark — and the cumulative-integral index is retained verbatim (cum
// stays anchored at the original t=0 origin), so Integral/Mean/Max over any
// window that starts at or after t are bit-identical to the uncompacted
// series: the binary searches resolve to the same change points and the same
// cum entries, and the origin anchor cancels in the window subtraction.
// Queries reaching before the retained region extrapolate the oldest retained
// value; readers that need history behind the watermark must hold a
// RetainedSeries. Returns the number of change points dropped.
func (s *StepSeries) CompactBefore(t float64) int {
	if len(s.times) == 0 {
		return 0
	}
	// k = last index with times[k] <= t.
	k := sort.SearchFloat64s(s.times, t)
	if k == len(s.times) || s.times[k] > t {
		k--
	}
	if k <= 0 {
		return 0
	}
	n := len(s.times) - k
	if c := max(2*n, initialSeriesCap); 2*c < cap(s.times) {
		s.times, s.values, s.cum = s.times[k:], s.values[k:], s.cum[k:]
		s.realloc(c, n)
		return k
	}
	s.times = s.times[:copy(s.times, s.times[k:])]
	s.values = s.values[:copy(s.values, s.values[k:])]
	s.cum = s.cum[:copy(s.cum, s.cum[k:])]
	return k
}

// integralTo returns ∫ s(x) dx from the series origin to t using the
// cumulative index; the first value extends back before times[0] (negative
// area for t < times[0]). cum[0] is 0 until CompactBefore drops a prefix,
// after which it anchors the retained index at the original origin — the
// addition is exact (+0) in the uncompacted case, keeping window integrals
// bit-identical either way.
func (s *StepSeries) integralTo(t float64) float64 {
	if t <= s.times[0] {
		return s.cum[0] + s.values[0]*(t-s.times[0])
	}
	// Last index j with times[j] <= t.
	j := sort.SearchFloat64s(s.times, t)
	if j == len(s.times) || s.times[j] > t {
		j--
	}
	return s.cum[j] + s.values[j]*(t-s.times[j])
}

// Integral returns ∫ s(t) dt over [t0, t1]. For a power series in watts this
// is energy in joules. t0 > t1 panics. The cumulative index makes this an
// O(log n) window query.
func (s *StepSeries) Integral(t0, t1 float64) float64 {
	if t0 > t1 {
		panic(fmt.Sprintf("telemetry: integral over reversed interval [%v,%v]", t0, t1))
	}
	if len(s.times) == 0 || t0 == t1 {
		return 0
	}
	return s.integralTo(t1) - s.integralTo(t0)
}

// Mean returns the time-weighted mean over [t0, t1]; zero if the interval is
// empty.
func (s *StepSeries) Mean(t0, t1 float64) float64 {
	if t1 <= t0 {
		return 0
	}
	return s.Integral(t0, t1) / (t1 - t0)
}

// Max returns the maximum value attained in [t0, t1]. The window bounds are
// located by binary search so only change points inside the window are
// visited.
func (s *StepSeries) Max(t0, t1 float64) float64 {
	if len(s.times) == 0 {
		return 0
	}
	max := s.Value(t0)
	// First index with times[i] > t0.
	i := sort.SearchFloat64s(s.times, t0)
	for i < len(s.times) && s.times[i] <= t0 {
		i++
	}
	for ; i < len(s.times) && s.times[i] <= t1; i++ {
		if s.values[i] > max {
			max = s.values[i]
		}
	}
	return max
}

// Scale returns a new series with every value multiplied by k (same change
// points). It replaces the change-point replay dance callers previously used
// to build weighted aggregates.
func (s *StepSeries) Scale(k float64) *StepSeries {
	out := &StepSeries{}
	out.realloc(len(s.times), len(s.times))
	copy(out.times, s.times)
	for i, v := range s.values {
		out.values[i] = v * k
	}
	// Rebuild the cumulative index from the scaled values so the index stays
	// self-consistent with the recurrence Set maintains.
	for i := range out.times {
		if i == 0 {
			out.cum[i] = 0
			continue
		}
		out.cum[i] = out.cum[i-1] + out.values[i-1]*(out.times[i]-out.times[i-1])
	}
	return out
}

// Resample evaluates the series on a regular grid [t0, t1] with step dt,
// returning one value per grid point (inclusive of t0, exclusive of points
// beyond t1). Each grid value is the time-weighted mean over its bucket,
// which is what a utilization plot wants.
func (s *StepSeries) Resample(t0, t1, dt float64) []float64 {
	if dt <= 0 {
		panic("telemetry: non-positive resample step")
	}
	var out []float64
	for t := t0; t < t1; t += dt {
		end := math.Min(t+dt, t1)
		out = append(out, s.Mean(t, end))
	}
	return out
}

// SumSeries point-wise adds step series, producing a new series with change
// points at the union of inputs' change points. Used to aggregate per-device
// power into cluster power.
func SumSeries(series ...*StepSeries) *StepSeries {
	return mergeSeries(series, 1)
}

// MeanSeries point-wise averages step series (e.g. per-device utilization →
// average device utilization). Empty input returns a zero series.
func MeanSeries(series ...*StepSeries) *StepSeries {
	if len(series) == 0 {
		return NewStepSeries(0)
	}
	return mergeSeries(series, float64(len(series)))
}

// mergePoint is one pending change point in the k-way merge heap.
type mergePoint struct {
	t      float64
	series int // index into the input slice
	idx    int // index of the change point within that series
}

type mergeHeap []mergePoint

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].series < h[j].series
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(mergePoint)) }
func (h *mergeHeap) Pop() any {
	old := *h
	n := len(old)
	p := old[n-1]
	*h = old[:n-1]
	return p
}

// mergeSeries is the k-way heap merge behind SumSeries/MeanSeries: change
// points are visited once each in global time order (O(P log S) for P total
// points across S series), and at every union point the current values are
// re-summed in input order — that keeps the float operation order, and hence
// the result, bit-identical to the naive per-point Σ Value(t) merge while
// dropping its per-point binary searches. div divides the per-point total
// (1 for a sum, len(series) for a mean).
func mergeSeries(series []*StepSeries, div float64) *StepSeries {
	cur := make([]float64, len(series))
	h := make(mergeHeap, 0, len(series))
	for i, s := range series {
		if s.Len() > 0 {
			// The first value extends back to t=0, matching Value().
			cur[i] = s.values[0]
			h = append(h, mergePoint{t: s.times[0], series: i, idx: 0})
		}
	}
	heap.Init(&h)
	out := NewStepSeries(0)
	emit := func(t float64) {
		total := 0.0
		for _, v := range cur {
			total += v
		}
		if div != 1 {
			total /= div
		}
		out.Set(t, total)
	}
	// The union point set always includes t=0 (every aggregate starts at the
	// beginning of simulated time).
	if len(h) == 0 || h[0].t > 0 {
		emit(0)
	}
	for len(h) > 0 {
		t := h[0].t
		// Apply every change at this instant before emitting once.
		for len(h) > 0 && h[0].t == t {
			p := heap.Pop(&h).(mergePoint)
			s := series[p.series]
			cur[p.series] = s.values[p.idx]
			if p.idx+1 < s.Len() {
				heap.Push(&h, mergePoint{t: s.times[p.idx+1], series: p.series, idx: p.idx + 1})
			}
		}
		emit(t)
	}
	return out
}

// JoulesToWh converts joules to watt-hours (the unit Table 2 reports).
func JoulesToWh(j float64) float64 { return j / 3600 }

// Sparkline renders values as a one-line unicode sparkline, a quick terminal
// stand-in for the utilization plots in Figure 3. Non-finite or non-positive
// scales fall back to 1, and NaN values render as the lowest level — a
// float-to-int conversion of NaN is platform-defined and would index out of
// range.
func Sparkline(values []float64, max float64) string {
	if max <= 0 || math.IsNaN(max) {
		max = 1
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	var b strings.Builder
	for _, v := range values {
		frac := v / max
		if math.IsNaN(frac) || frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		idx := int(frac * float64(len(levels)-1))
		b.WriteRune(levels[idx])
	}
	return b.String()
}
