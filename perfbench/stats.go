package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: a percentile with fewer samples beyond it is the largest few
// samples under another name, and is not reported.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs and
// whether at least minBeyond samples lie beyond it. xs need not be sorted;
// it is sorted in place.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1], n-rank >= minBeyond
}

// median returns the median of xs (mean of the middle pair for even
// counts), sorting xs in place; 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), which is
// how the benchmark's steadiness is judged. Needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3), true
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3, ok := quartiles(xs)
	m := median(append([]float64(nil), xs...))
	if !ok || m == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(m)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// outcome is one attempted operation as the client saw it.
type outcome struct {
	endpoint string
	// lat runs from the request's start (closed loop) or due time (open
	// loop) to the end of its response body.
	lat time.Duration
	// late is how far behind its due time an open-loop request was sent
	// (0 in a closed loop).
	late time.Duration
	// open marks a request sent by an open-loop scheduler.
	open bool
	ok   bool
}

// tally summarises a set of outcomes per endpoint.
type tally struct {
	attempted, failed int
	lat               map[string][]float64 // successful latencies, ms
	late              []float64            // open-loop lateness, ms
}

func newTally(outs []outcome) *tally {
	t := &tally{lat: map[string][]float64{}}
	for _, o := range outs {
		t.attempted++
		if o.open {
			t.late = append(t.late, ms(o.late))
		}
		if !o.ok {
			t.failed++
			continue
		}
		t.lat[o.endpoint] = append(t.lat[o.endpoint], ms(o.lat))
	}
	return t
}

// errorFrac is failed over attempted operations: non-2xx responses and
// transport errors both count as failures.
func (t *tally) errorFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// mean returns the mean successful latency of an endpoint in ms.
func (t *tally) mean(endpoint string) float64 {
	xs := t.lat[endpoint]
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
