package radio

import (
	"fmt"
	"math"
	"testing"

	"mstc/internal/geom"
	"mstc/internal/mobility"
	"mstc/internal/xrand"
)

// benchMedium builds a default medium over n random-waypoint nodes at the
// paper's density (100 nodes per 900 m × 900 m) moving at 1–20 m/s.
func benchMedium(b *testing.B, n int) *Medium {
	b.Helper()
	side := 900 * math.Sqrt(float64(n)/100)
	model, err := mobility.NewRandomWaypoint(geom.Square(side), mobility.WaypointConfig{
		N: n, SpeedMin: 1, SpeedMax: 20, Horizon: 100,
	}, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	med, err := NewMedium(model, Config{}, xrand.New(2))
	if err != nil {
		b.Fatal(err)
	}
	return med
}

// BenchmarkReceiversAt times one Hello-shaped receiver query (normal range
// 250 m) per op, each at a fresh instant 1 ms after the last, the way
// asynchronous beacons query the medium.
func BenchmarkReceiversAt(b *testing.B) {
	for _, n := range []int{100, 3000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			med := benchMedium(b, n)
			buf := make([]int, 0, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = med.ReceiversAt(float64(i%90000)*1e-3, i%n, 250, buf[:0])
			}
		})
	}
}

// BenchmarkReceiverCountsAt times one metric sample per op: every node's
// physical degree at 250 m, at instants 0.1 s apart (the paper's 10 Hz
// sampling).
func BenchmarkReceiverCountsAt(b *testing.B) {
	for _, n := range []int{100, 3000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			med := benchMedium(b, n)
			ranges := make([]float64, n)
			for i := range ranges {
				ranges[i] = 250
			}
			counts := make([]int, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				med.ReceiverCountsAt(float64(i%900)*0.1, ranges, counts)
			}
		})
	}
}
