package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0 <= p <= 100) of xs by linear
// interpolation between the two nearest ranks (the "type 7" estimator).
// It returns NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first quartile, the median and the third quartile.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	return percentile(xs, 25), percentile(xs, 50), percentile(xs, 75)
}

// tailLadder is the set of percentiles a tail is reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tail applies the reporting rule for timings: the highest percentile on
// the ladder that has at least ten samples beyond it. A sample too small
// for even the median to qualify (fewer than 20 values) reports the median.
// It returns the percentile chosen, its value and the number of samples
// beyond it.
func tail(xs []float64) (pct, value float64, beyond int) {
	n := len(xs)
	pct = tailLadder[len(tailLadder)-1]
	for _, p := range tailLadder {
		if samplesBeyond(n, p) >= 10 {
			pct = p
			break
		}
	}
	return pct, percentile(xs, pct), samplesBeyond(n, pct)
}

// samplesBeyond is how many of n samples lie strictly above the p-th
// percentile's rank.
func samplesBeyond(n int, p float64) int {
	// The epsilon absorbs float error in 100-p (100-99.9 is not exact).
	return int(math.Floor(float64(n)*(100-p)/100 + 1e-9))
}

// mean returns the arithmetic mean, NaN for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// powerLawExponent fits y = c·x^k by least squares on (log x, log y) and
// returns k. Points with a non-positive coordinate are skipped; fewer than
// two usable points give NaN.
func powerLawExponent(xs, ys []float64) float64 {
	var lx, ly []float64
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	if len(lx) < 2 {
		return math.NaN()
	}
	mx, my := mean(lx), mean(ly)
	var sxy, sxx float64
	for i := range lx {
		sxy += (lx[i] - mx) * (ly[i] - my)
		sxx += (lx[i] - mx) * (lx[i] - mx)
	}
	if sxx == 0 {
		return math.NaN()
	}
	return sxy / sxx
}
