package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// This file pins the optimized StepSeries machinery to the seed's naive
// implementations: the k-way heap merge behind SumSeries/MeanSeries must be
// bit-identical to the per-point Σ Value(t) merge (same float operation
// order), and the cumulative-index Integral must agree with the full-segment
// scan to float accumulation error.

// naiveIntegral is the seed's full-scan implementation, kept verbatim as the
// reference semantics.
func naiveIntegral(s *StepSeries, t0, t1 float64) float64 {
	if len(s.times) == 0 || t0 == t1 {
		return 0
	}
	total := 0.0
	for i := 0; i < len(s.times); i++ {
		segStart := s.times[i]
		segEnd := math.Inf(1)
		if i+1 < len(s.times) {
			segEnd = s.times[i+1]
		}
		lo := math.Max(segStart, t0)
		hi := math.Min(segEnd, t1)
		if i == 0 && t0 < segStart {
			total += s.values[0] * (math.Min(segStart, t1) - t0)
		}
		if hi > lo {
			total += s.values[i] * (hi - lo)
		}
	}
	return total
}

// naiveMax is the seed's full-scan max.
func naiveMax(s *StepSeries, t0, t1 float64) float64 {
	if len(s.times) == 0 {
		return 0
	}
	max := s.Value(t0)
	for i, t := range s.times {
		if t > t0 && t <= t1 && s.values[i] > max {
			max = s.values[i]
		}
	}
	return max
}

// naiveChangePoints and naiveMerge are the seed's map-and-sort union merge.
func naiveChangePoints(series []*StepSeries) []float64 {
	seen := map[float64]bool{0: true}
	var pts []float64
	pts = append(pts, 0)
	for _, s := range series {
		for _, t := range s.times {
			if !seen[t] {
				seen[t] = true
				pts = append(pts, t)
			}
		}
	}
	sort.Float64s(pts)
	return pts
}

func naiveSum(series ...*StepSeries) *StepSeries {
	pts := naiveChangePoints(series)
	out := NewStepSeries(0)
	for _, t := range pts {
		total := 0.0
		for _, s := range series {
			total += s.Value(t)
		}
		out.Set(t, total)
	}
	return out
}

func naiveMean(series ...*StepSeries) *StepSeries {
	if len(series) == 0 {
		return NewStepSeries(0)
	}
	pts := naiveChangePoints(series)
	out := NewStepSeries(0)
	for _, t := range pts {
		total := 0.0
		for _, s := range series {
			total += s.Value(t)
		}
		out.Set(t, total/float64(len(series)))
	}
	return out
}

// randomSeries builds a series with random change points; shareTimes makes
// collisions across series likely (the simulation sets many samples at the
// same event instant).
func randomSeries(rng *rand.Rand, points int, shareTimes bool) *StepSeries {
	s := NewStepSeries(rng.Float64() * 10)
	t := 0.0
	for i := 0; i < points; i++ {
		if shareTimes {
			t += float64(rng.Intn(4)) // repeats and integer collisions
		} else {
			t += rng.Float64() * 3
		}
		s.Set(t, rng.Float64()*100-20)
	}
	return s
}

func seriesEqual(a, b *StepSeries) bool {
	if len(a.times) != len(b.times) {
		return false
	}
	for i := range a.times {
		if a.times[i] != b.times[i] || a.values[i] != b.values[i] {
			return false
		}
	}
	return true
}

func TestSumMeanSeriesBitIdenticalToNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(6)
		shared := trial%2 == 0
		var series []*StepSeries
		for i := 0; i < n; i++ {
			series = append(series, randomSeries(rng, rng.Intn(40), shared))
		}
		gotSum := SumSeries(series...)
		wantSum := naiveSum(series...)
		if !seriesEqual(gotSum, wantSum) {
			t.Fatalf("trial %d: SumSeries diverged from naive merge\n got %v %v\nwant %v %v",
				trial, gotSum.times, gotSum.values, wantSum.times, wantSum.values)
		}
		gotMean := MeanSeries(series...)
		wantMean := naiveMean(series...)
		if !seriesEqual(gotMean, wantMean) {
			t.Fatalf("trial %d: MeanSeries diverged from naive merge", trial)
		}
	}
}

func TestIndexedIntegralMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		s := randomSeries(rng, 1+rng.Intn(60), trial%2 == 0)
		span := s.times[len(s.times)-1] + 5
		for q := 0; q < 20; q++ {
			t0 := rng.Float64() * span
			t1 := t0 + rng.Float64()*span
			got := s.Integral(t0, t1)
			want := naiveIntegral(s, t0, t1)
			// The cumulative index accumulates from t=0 while the naive scan
			// accumulates per-window, so the two differ only by float
			// rounding of mathematically identical sums.
			tol := 1e-9 * math.Max(1, math.Abs(want))
			if math.Abs(got-want) > tol {
				t.Fatalf("trial %d: Integral(%v,%v) = %v, naive %v", trial, t0, t1, got, want)
			}
			if m := s.Max(t0, t1); m != naiveMax(s, t0, t1) {
				t.Fatalf("trial %d: Max(%v,%v) = %v, naive %v", trial, t0, t1, m, naiveMax(s, t0, t1))
			}
		}
	}
}

func TestScaleMatchesPointwise(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		s := randomSeries(rng, rng.Intn(50), false)
		k := rng.Float64()*4 - 2
		sc := s.Scale(k)
		if sc.Len() != s.Len() {
			t.Fatalf("Scale changed the change-point count: %d vs %d", sc.Len(), s.Len())
		}
		for i, tm := range s.times {
			if sc.values[i] != s.values[i]*k {
				t.Fatalf("Scale value mismatch at %v", tm)
			}
		}
		// The scaled series' integral index must stay self-consistent.
		end := s.times[len(s.times)-1] + 1
		got := sc.Integral(0, end)
		want := naiveIntegral(sc, 0, end)
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("scaled integral %v, naive %v", got, want)
		}
	}
}

// cloneSeries deep-copies a series, cum index included.
func cloneSeries(s *StepSeries) *StepSeries {
	c := &StepSeries{
		times:  append([]float64(nil), s.times...),
		values: append([]float64(nil), s.values...),
		cum:    append([]float64(nil), s.cum...),
	}
	return c
}

// TestCompactBeforeBitIdentical pins the retention contract: for random
// series and random watermarks, compacting and then querying any window that
// starts at or after the watermark returns bit-identical Integral/Mean/Max
// (float equality, not tolerance) to the uncompacted series — the binary
// searches must land on the same change points and the retained cum entries
// must be the original ones.
func TestCompactBeforeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		full := randomSeries(rng, 1+rng.Intn(60), trial%2 == 0)
		span := full.times[len(full.times)-1] + 5
		w := rng.Float64() * span
		compacted := cloneSeries(full)
		dropped := compacted.CompactBefore(w)
		if got := full.Len() - compacted.Len(); got != dropped {
			t.Fatalf("trial %d: CompactBefore reported %d dropped, len shrank by %d", trial, dropped, got)
		}
		// The retained head must carry the value in effect at the watermark.
		if compacted.Value(w) != full.Value(w) {
			t.Fatalf("trial %d: Value(%v) = %v after compaction, want %v",
				trial, w, compacted.Value(w), full.Value(w))
		}
		if compacted.Last() != full.Last() {
			t.Fatalf("trial %d: Last changed across compaction", trial)
		}
		for q := 0; q < 30; q++ {
			t0 := w + rng.Float64()*(span-w)
			t1 := t0 + rng.Float64()*(span-t0)
			if got, want := compacted.Integral(t0, t1), full.Integral(t0, t1); got != want {
				t.Fatalf("trial %d: Integral(%v,%v) = %v after CompactBefore(%v), want bit-identical %v",
					trial, t0, t1, got, w, want)
			}
			if got, want := compacted.Mean(t0, t1), full.Mean(t0, t1); got != want {
				t.Fatalf("trial %d: Mean(%v,%v) diverged after compaction", trial, t0, t1)
			}
			if got, want := compacted.Max(t0, t1), full.Max(t0, t1); got != want {
				t.Fatalf("trial %d: Max(%v,%v) = %v after compaction, want %v", trial, t0, t1, got, want)
			}
		}
		// Query exactly at the retained head: this exercises integralTo's
		// t <= times[0] branch, which must respect the retained cum anchor.
		h := compacted.times[0]
		if got, want := compacted.Integral(h, span), full.Integral(h, span); got != want {
			t.Fatalf("trial %d: Integral at retained head %v = %v, want %v", trial, h, got, want)
		}
		// Appending after compaction must keep the index consistent. Anchor
		// the tail past both the retained head and the watermark so the
		// closing window stays within the bit-identical region.
		tail := math.Max(compacted.times[compacted.Len()-1], w) + 1 + rng.Float64()
		v := rng.Float64() * 50
		compacted.Set(tail, v)
		full.Set(tail, v)
		if got, want := compacted.Integral(w, tail+2), full.Integral(w, tail+2); got != want {
			t.Fatalf("trial %d: post-compaction append diverged: %v vs %v", trial, got, want)
		}
	}
}

// TestCompactBeforeKeepsItsSlab pins what the serving shards' retention tick
// relies on: a steady Set / CompactBefore cycle slides the tail inside the slab
// the series already owns (no allocation, the same backing array), a burst's
// slab is given back once the tail fills under a quarter of it, and through
// all of it every window at or after the watermark reads bit-identically to a
// series that was never compacted.
func TestCompactBeforeKeepsItsSlab(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s, oracle := NewStepSeries(0), NewStepSeries(0)
	now, watermark := 0.0, 0.0
	set := func(n int) {
		for i := 0; i < n; i++ {
			now += 0.25 + rng.Float64()
			v := float64(rng.Intn(1000))
			s.Set(now, v)
			oracle.Set(now, v)
		}
	}
	compact := func(keepS float64) {
		watermark = now - keepS
		s.CompactBefore(watermark)
	}
	check := func(when string) {
		t.Helper()
		for q := 0; q < 40; q++ {
			t0 := watermark + rng.Float64()*(now-watermark)
			t1 := t0 + rng.Float64()*(now+3-t0)
			if got, want := s.Integral(t0, t1), oracle.Integral(t0, t1); got != want {
				t.Fatalf("%s: Integral(%v,%v) = %v, uncompacted %v", when, t0, t1, got, want)
			}
			if got, want := s.Mean(t0, t1), oracle.Mean(t0, t1); got != want {
				t.Fatalf("%s: Mean(%v,%v) = %v, uncompacted %v", when, t0, t1, got, want)
			}
			if got, want := s.Max(t0, t1), oracle.Max(t0, t1); got != want {
				t.Fatalf("%s: Max(%v,%v) = %v, uncompacted %v", when, t0, t1, got, want)
			}
		}
	}

	// Steady state: about 330 points retained and 100 more per stride (the
	// shard tick compacts once the watermark lags a quarter of its window), so
	// the series peaks near 430 points, clear of a 512-point slab's edge.
	cycle := func() {
		set(100)
		compact(250)
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	check("warm-up")
	slab, slabCap := &s.times[:1][0], cap(s.times)
	allocs := testing.AllocsPerRun(50, cycle)
	if allocs != 0 || &s.times[:1][0] != slab || cap(s.times) != slabCap {
		t.Fatalf("a steady Set/compact cycle allocates %.0f times and moved its slab (cap %d → %d), want 0 and in place",
			allocs, slabCap, cap(s.times))
	}
	if s.Len() > slabCap || 4*s.Len() < slabCap {
		t.Fatalf("steady state holds %d points in a %d-point slab", s.Len(), slabCap)
	}
	check("steady state")
	t.Logf("steady state: %d points in a %d-point slab, %.0f allocations per 100-point stride", s.Len(), slabCap, allocs)

	// A burst grows the slab; compacting back down to the steady tail returns it.
	set(20000)
	burstCap := cap(s.times)
	compact(250)
	if c := cap(s.times); c >= burstCap/4 || c < s.Len() || c > 2*max(s.Len(), initialSeriesCap) {
		t.Fatalf("after a %d-point burst the tail of %d points sits in a %d-point slab", burstCap, s.Len(), c)
	}
	check("after the burst")
	for i := 0; i < 16; i++ {
		cycle()
	}
	check("steady state again")
}

func TestAddDelta(t *testing.T) {
	s := NewStepSeries(2)
	s.AddDelta(1, 3)
	s.AddDelta(2, -5)
	if got := s.Value(0.5); got != 2 {
		t.Fatalf("Value(0.5) = %v, want 2", got)
	}
	if got := s.Value(1.5); got != 5 {
		t.Fatalf("Value(1.5) = %v, want 5", got)
	}
	if got := s.Value(3); got != 0 {
		t.Fatalf("Value(3) = %v, want 0", got)
	}
	if got, want := s.Integral(0, 3), 2*1+5*1+0*1.0; got != want {
		t.Fatalf("Integral = %v, want %v", got, want)
	}
}
