package main

import (
	"math"
	"slices"
)

// chunkSize is how many consecutive timed latency samples make one chunk:
// enough for 80 samples beyond each chunk's p99.
const chunkSize = 8192

// percentile reads the p-quantile (0 < p ≤ 1) from sorted samples by nearest
// rank: ceil(p·n) − 1.
func percentile[T float32 | float64](sorted []T, p float64) T {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(idx, 0), len(sorted)-1)]
}

// median sorts a copy of xs and returns its median (mean of the middle pair
// for even counts); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// chunker turns a stream of latency samples into the two latency metrics
// without keeping the samples: it fills a fixed buffer, and each time the
// buffer is full records that chunk's median and p99 and starts over. The
// metrics are the medians of those per-chunk readings. Two reasons:
//
//   - steadiness: one GC pause or scheduler hiccup lands in one chunk and
//     moves one of many estimates, where it would move a pooled p99 outright
//     (the pooled p99 spread three times as much run to run);
//   - the harness must not pace the collector of the program it measures: a
//     sample slice growing to megabytes beside a ~2 MB server heap stretched
//     the GC interval as the run went on and raised throughput by a quarter
//     between the first and the last seconds of a run.
type chunker struct {
	buf        []float32
	p50s, p99s []float64
}

func newChunker() *chunker {
	return &chunker{buf: make([]float32, 0, chunkSize), p50s: make([]float64, 0, 256), p99s: make([]float64, 0, 256)}
}

func (c *chunker) add(x float32) {
	c.buf = append(c.buf, x)
	if len(c.buf) == chunkSize {
		c.flush()
	}
}

func (c *chunker) flush() {
	slices.Sort(c.buf)
	c.p50s = append(c.p50s, float64(percentile(c.buf, 0.5)))
	c.p99s = append(c.p99s, float64(percentile(c.buf, 0.99)))
	c.buf = c.buf[:0]
}

// percentiles returns the median over chunks of the per-chunk median and
// p99. The trailing partial chunk counts only when no chunk ever filled.
func (c *chunker) percentiles() (p50, p99 float64) {
	if len(c.p50s) == 0 && len(c.buf) > 0 {
		c.flush()
	}
	return median(c.p50s), median(c.p99s)
}

// quartiles returns the first quartile, median and third quartile of xs with
// the exclusive method Python's statistics.quantiles(xs, n=4) uses, so the
// ledger's spread is the driver's spread. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(k int) float64 {
		// 1-based rank k·(n+1)/4, clamped to 1..n-1 before the remainder is
		// taken — so, like Python, the ends extrapolate.
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}
