package topology

import (
	"fmt"
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

// discView returns a view of d neighbors spread uniformly over the disc of
// radius normalRange around Self, ids in random spatial order.
func discView(d int) View {
	rng := xrand.New(uint64(d))
	v := View{Self: NodeInfo{ID: 0, Pos: geom.Pt(500, 500)}}
	for len(v.Neighbors) < d {
		p := geom.Pt(rng.Uniform(250, 750), rng.Uniform(250, 750))
		if p.Dist(v.Self.Pos) <= normalRange {
			v.Neighbors = append(v.Neighbors, NodeInfo{ID: len(v.Neighbors) + 1, Pos: p})
		}
	}
	return v
}

// latticeView returns Self on a 62.5 m lattice with every lattice point
// within normalRange as a neighbor (48 of them): every witness ties with
// many others on cost, so the RNG kernel's tie-band path runs throughout.
func latticeView() View {
	var pts []geom.Point
	for x := -4; x <= 4; x++ {
		for y := -4; y <= 4; y++ {
			pts = append(pts, geom.Pt(500+62.5*float64(x), 500+62.5*float64(y)))
		}
	}
	return viewOf(pts, 40, normalRange) // pts[40] is the centre point
}

// BenchmarkRNGSelect sweeps the RNG kernel over view size: the paper's
// density gives d ≈ 24; d = 64 is a dense neighborhood.
func BenchmarkRNGSelect(b *testing.B) {
	for _, d := range []int{8, 24, 64} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) { benchSelectView(b, RNG{}, discView(d)) })
	}
	b.Run("lattice", func(b *testing.B) { benchSelectView(b, RNG{}, latticeView()) })
}

func benchSelect(b *testing.B, p Protocol) { benchSelectView(b, p, benchView()) }

func benchSelectView(b *testing.B, p Protocol, v View) {
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
