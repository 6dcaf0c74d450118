package topology

import (
	"testing"

	"mstc/internal/geom"
	"mstc/internal/xrand"
)

// benchView builds one node's view at the paper's density: 100 nodes in a
// 900 m square, 250 m normal range (~24 neighbors).
func benchView() View {
	rng := xrand.New(9)
	pts := make([]geom.Point, 100)
	for i := range pts {
		pts[i] = geom.Pt(rng.Uniform(0, 900), rng.Uniform(0, 900))
	}
	return viewOf(pts, 0, normalRange)
}

// benchMultiView is benchView as a weakly consistent view: each node
// carries k = 3 positions, its current one and two earlier ones up to 10 m
// away on each axis.
func benchMultiView() MultiView {
	v := benchView()
	rng := xrand.New(10)
	multi := func(p geom.Point) []geom.Point {
		pos := []geom.Point{p}
		for len(pos) < 3 {
			pos = append(pos, geom.Pt(p.X+rng.Uniform(-10, 10), p.Y+rng.Uniform(-10, 10)))
		}
		return pos
	}
	mv := MultiView{Self: MultiNodeInfo{ID: v.Self.ID, Positions: multi(v.Self.Pos)}}
	for _, nb := range v.Neighbors {
		mv.Neighbors = append(mv.Neighbors, MultiNodeInfo{ID: nb.ID, Positions: multi(nb.Pos)})
	}
	return mv
}

func benchSelect(b *testing.B, p Protocol) {
	v := benchView()
	s := &Scratch{}
	var dst []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = SelectInto(p, v, dst[:0], s)
	}
	if len(dst) == 0 {
		b.Fatal("selected nothing")
	}
}

func BenchmarkRNGSelect(b *testing.B)     { benchSelect(b, RNG{}) }
func BenchmarkGabrielSelect(b *testing.B) { benchSelect(b, Gabriel{}) }
func BenchmarkMSTSelect(b *testing.B)     { benchSelect(b, MST{Range: normalRange}) }
func BenchmarkSPTSelect(b *testing.B)     { benchSelect(b, SPT{Alpha: 2, Range: normalRange}) }
func BenchmarkYaoSelect(b *testing.B)     { benchSelect(b, Yao{K: 6}) }

func benchSelectWeak(b *testing.B, p WeakProtocol) {
	v := benchMultiView()
	s := &Scratch{}
	var dst []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = SelectWeakInto(p, v, dst[:0], s)
	}
	if len(dst) == 0 {
		b.Fatal("selected nothing")
	}
}

func BenchmarkSPT4Select(b *testing.B)    { benchSelect(b, SPT{Alpha: 4, Range: normalRange}) }
func BenchmarkWeakRNGSelect(b *testing.B) { benchSelectWeak(b, WeakRNG{}) }
func BenchmarkWeakMSTSelect(b *testing.B) { benchSelectWeak(b, WeakMST{Range: normalRange}) }
func BenchmarkWeakSPTSelect(b *testing.B) { benchSelectWeak(b, WeakSPT{Alpha: 2, Range: normalRange}) }
