package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	q1, q2, q3 := quartiles(seq(9)) // 1..9
	if q1 != 3 || q2 != 5 || q3 != 7 {
		t.Errorf("quartiles(1..9) = %v %v %v, want 3 5 7", q1, q2, q3)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of an empty sample must be NaN")
	}
	xs := []float64{5, 1, 4}
	median(xs)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 4 {
		t.Error("percentile must not reorder its input")
	}
}

// The tail is the highest ladder percentile with at least ten samples
// beyond it; the sample count beyond it is reported with it.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		pct    float64
		beyond int
	}{
		{1, 50, 0},
		{19, 50, 9}, // too small even for the median: report the median
		{20, 50, 10},
		{39, 50, 19},
		{40, 75, 10},
		{66, 75, 16},
		{99, 75, 24},
		{100, 90, 10},
		{199, 90, 19},
		{200, 95, 10},
		{1000, 99, 10},
		{9999, 99, 99},
		{10000, 99.9, 10},
	} {
		pct, value, beyond := tail(seq(c.n))
		if pct != c.pct || beyond != c.beyond {
			t.Errorf("n=%d: tail at p%v with %d beyond, want p%v with %d", c.n, pct, beyond, c.pct, c.beyond)
		}
		if want := percentile(seq(c.n), c.pct); value != want {
			t.Errorf("n=%d: tail value %v, want p%v = %v", c.n, value, c.pct, want)
		}
	}
}

func TestPowerLawExponent(t *testing.T) {
	ns := []float64{100, 300, 1000, 3000}
	for _, k := range []float64{1, 1.5, 2} {
		ys := make([]float64, len(ns))
		for i, n := range ns {
			ys[i] = 0.7 * math.Pow(n, k)
		}
		if got := powerLawExponent(ns, ys); math.Abs(got-k) > 1e-9 {
			t.Errorf("exponent of 0.7·n^%v = %v", k, got)
		}
	}
	// Non-positive points are skipped; fewer than two usable points give NaN.
	if got := powerLawExponent([]float64{0, 10, 100}, []float64{5, 10, 100}); math.Abs(got-1) > 1e-9 {
		t.Errorf("exponent with a skipped point = %v, want 1", got)
	}
	if got := powerLawExponent([]float64{10}, []float64{1}); !math.IsNaN(got) {
		t.Errorf("exponent of one point = %v, want NaN", got)
	}
}
