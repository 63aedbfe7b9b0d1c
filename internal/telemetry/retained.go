package telemetry

import (
	"fmt"
	"math"
)

// Rollup summarizes one compacted epoch of a series: the exact integral over
// [StartS, EndS) plus the max and time-weighted mean attained in it. Rollups
// are computed from the live series immediately before its points are
// dropped, so the integral is exact and the max is the true epoch max.
type Rollup struct {
	StartS   float64
	EndS     float64
	Integral float64
	Max      float64
	Mean     float64
}

// RetainedSeries is a StepSeries under tiered retention: full-resolution
// change points are kept only at or after a watermark, while everything
// older is collapsed into per-epoch Rollup buckets. Window queries that stay
// at or after the watermark hit the live series and are bit-identical to the
// never-compacted series (CompactBefore preserves the cumulative-integral
// index exactly); queries reaching behind the watermark combine bucket
// rollups with the live tail — exact at bucket boundaries, mean-prorated
// inside a partially-covered bucket, and conservative (an upper bound) for
// Max.
//
// Like StepSeries it is single-goroutine: the simulation engine owns it.
type RetainedSeries struct {
	// live is held by value so a retained series is a single allocation
	// (plus the live series' slab).
	live      StepSeries
	watermark float64
	buckets   []Rollup
	dropped   int
}

// NewRetained returns a retained series with an initial value from t=0 and
// an empty rollup history.
func NewRetained(initial float64) *RetainedSeries {
	r := &RetainedSeries{}
	r.live.initStepSeries(initial)
	return r
}

// Live returns the full-resolution series covering [watermark, now]. Its
// oldest change point is the last one at or before the watermark (it carries
// the value in effect there).
func (r *RetainedSeries) Live() *StepSeries { return &r.live }

// Watermark returns the retention watermark: full-resolution history exists
// only at or after it.
func (r *RetainedSeries) Watermark() float64 { return r.watermark }

// Rollups returns the compacted-epoch buckets, oldest first. The returned
// slice is the internal one; callers must not mutate it.
func (r *RetainedSeries) Rollups() []Rollup { return r.buckets }

// DroppedPoints returns the total change points compacted away so far.
func (r *RetainedSeries) DroppedPoints() int { return r.dropped }

// Len returns live change points retained (rollup buckets not included).
func (r *RetainedSeries) Len() int { return r.live.Len() }

// Set and AddDelta delegate to the live series.
func (r *RetainedSeries) Set(t, v float64)      { r.live.Set(t, v) }
func (r *RetainedSeries) AddDelta(t, d float64) { r.live.AddDelta(t, d) }

// maxRollups bounds the bucket list: without a cap, one bucket per epoch
// per series is a small but unbounded leak — the exact growth mode tiered
// retention exists to kill. Past the cap the two oldest buckets merge
// (integrals add exactly, maxes take the max), so the oldest bucket absorbs
// deep history at ever-coarser granularity while recent epochs stay sharp.
const maxRollups = 64

// CompactBefore advances the watermark to t: the epoch [old watermark, t) is
// summarized into one rollup bucket (computed from the still-complete live
// series, so its integral is exact), then the live points before t are
// dropped. Compacting at or behind the current watermark is a no-op.
// Returns the number of live change points dropped.
func (r *RetainedSeries) CompactBefore(t float64) int {
	if t <= r.watermark || r.live.Len() == 0 {
		return 0
	}
	r.buckets = append(r.buckets, Rollup{
		StartS:   r.watermark,
		EndS:     t,
		Integral: r.live.Integral(r.watermark, t),
		Max:      r.live.Max(r.watermark, t),
		Mean:     r.live.Mean(r.watermark, t),
	})
	if len(r.buckets) > maxRollups {
		a, b := r.buckets[0], r.buckets[1]
		merged := Rollup{
			StartS:   a.StartS,
			EndS:     b.EndS,
			Integral: a.Integral + b.Integral,
			Max:      math.Max(a.Max, b.Max),
		}
		if span := merged.EndS - merged.StartS; span > 0 {
			merged.Mean = merged.Integral / span
		}
		r.buckets = append(r.buckets[:1], r.buckets[2:]...)
		r.buckets[0] = merged
	}
	n := r.live.CompactBefore(t)
	r.dropped += n
	r.watermark = t
	return n
}

// Integral returns ∫ over [t0, t1]. At or after the watermark it is the live
// series' exact (bit-identical) answer; behind it, fully-covered buckets
// contribute their exact integrals and a partially-covered bucket is
// prorated by its mean.
func (r *RetainedSeries) Integral(t0, t1 float64) float64 {
	if t0 > t1 {
		panic(fmt.Sprintf("telemetry: integral over reversed interval [%v,%v]", t0, t1))
	}
	if t0 >= r.watermark {
		return r.live.Integral(t0, t1)
	}
	total := 0.0
	for _, b := range r.buckets {
		lo, hi := math.Max(b.StartS, t0), math.Min(b.EndS, t1)
		if hi <= lo {
			continue
		}
		if lo == b.StartS && hi == b.EndS {
			total += b.Integral
		} else {
			total += b.Mean * (hi - lo)
		}
	}
	if t1 > r.watermark {
		total += r.live.Integral(r.watermark, t1)
	}
	return total
}

// Mean returns the time-weighted mean over [t0, t1]; zero for an empty
// window. On the live side it reproduces StepSeries.Mean bit-for-bit.
func (r *RetainedSeries) Mean(t0, t1 float64) float64 {
	if t1 <= t0 {
		return 0
	}
	return r.Integral(t0, t1) / (t1 - t0)
}

// Max returns the maximum attained in [t0, t1]. Behind the watermark it
// takes the max over the covered buckets' epoch maxima, which is an upper
// bound on (and at bucket granularity equal to) the true window max.
func (r *RetainedSeries) Max(t0, t1 float64) float64 {
	if t0 >= r.watermark {
		return r.live.Max(t0, t1)
	}
	max := math.Inf(-1)
	covered := false
	for _, b := range r.buckets {
		if math.Min(b.EndS, t1) > math.Max(b.StartS, t0) {
			covered = true
			if b.Max > max {
				max = b.Max
			}
		}
	}
	if t1 > r.watermark {
		if m := r.live.Max(r.watermark, t1); m > max {
			max = m
		}
		covered = true
	}
	if !covered {
		return r.live.Value(t0)
	}
	return max
}
