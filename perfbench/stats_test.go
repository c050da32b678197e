package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // ranks 991..1000 lie beyond
		{999, 0.99, 990, false}, // only 9 beyond
		{100, 0.90, 90, true},
		{99, 0.90, 90, false},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{1, 0.50, 1, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported")
	}
}

// The quartiles must match Python's statistics.quantiles(xs, n=4), by
// which the benchmark's steadiness is judged.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.5, 1.25}, 0.6875, 4.0625},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{10, 20, 30}, 10, 30},
	}
	for _, c := range cases {
		q1, q3, ok := quartiles(c.xs)
		if !ok || math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestErrorFracCountsFailuresOverAttempts(t *testing.T) {
	outs := []outcome{
		{endpoint: epSegment, lat: 2 * time.Millisecond, ok: true},
		{endpoint: epSegment, lat: 9 * time.Second, ok: false}, // non-2xx
		{endpoint: epQuery, lat: time.Millisecond, ok: true},
		{endpoint: epIngest, ok: false, open: true, late: 3 * time.Millisecond}, // transport error
	}
	tl := newTally(outs)
	if tl.attempted != 4 || tl.failed != 2 || tl.errorFrac() != 0.5 {
		t.Fatalf("attempted %d failed %d frac %v; want 4, 2, 0.5", tl.attempted, tl.failed, tl.errorFrac())
	}
	if got := tl.lat[epSegment]; len(got) != 1 || got[0] != 2 {
		t.Errorf("segment latencies %v: a failed request must not add a latency", got)
	}
	if len(tl.late) != 1 || tl.late[0] != 3 {
		t.Errorf("lateness %v: every open-loop send counts, failed or not", tl.late)
	}
	if (&tally{}).errorFrac() != 0 {
		t.Error("errorFrac of nothing attempted")
	}
}
