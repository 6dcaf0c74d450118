package topology

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"mstc/internal/geom"
)

// Shapes fuzzView decodes a view into.
const (
	shapeLattice   = iota // grid points: exact cost ties everywhere
	shapeColocated        // four shared points: zero-length links
	shapeCircle           // a circle around Self at 30° steps, nudged by ulps
	shapeRawBits          // arbitrary float64 bit patterns, NaN and ±Inf included
	shapeScaled           // small integers times 2^e, from subnormal to overflow
	shapeCount
)

// fuzzView decodes a canonical view from data. Neighbor j gets id 2j+1 and
// Self an even id, so Self can sit at any rank of the id order.
func fuzzView(shape, scale uint8, data []byte) View {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n := int(next() % 41)
	selfRank := int(next()) % (n + 1)
	step := 12.5 * float64(scale%4+1)
	center := geom.Pt(300, 300)
	pool := [4]geom.Point{center, geom.Pt(300, 400), geom.Pt(400, 300), geom.Pt(300+step, 300)}
	nudge := func(x float64, b byte) float64 { // moves x by -2..+2 ulps
		for k := int(b%5) - 2; k != 0; k -= min(max(k, -1), 1) {
			x = math.Nextafter(x, float64(k)*math.Inf(1))
		}
		return x
	}
	pt := func(self bool) geom.Point {
		switch shape % shapeCount {
		case shapeLattice:
			return geom.Pt(float64(next()%8)*step, float64(next()%8)*step)
		case shapeColocated:
			return pool[next()%4]
		case shapeCircle:
			if self {
				return center
			}
			p := center.Add(geom.Polar(100, float64(next()%12)*math.Pi/6))
			return geom.Pt(nudge(p.X, next()), nudge(p.Y, next()))
		case shapeRawBits:
			var b [16]byte
			for i := range b {
				b[i] = next()
			}
			return geom.Pt(math.Float64frombits(binary.LittleEndian.Uint64(b[:8])),
				math.Float64frombits(binary.LittleEndian.Uint64(b[8:])))
		default:
			e := int(scale)*9 - 1100
			return geom.Pt(math.Ldexp(float64(int8(next())), e), math.Ldexp(float64(int8(next())), e))
		}
	}
	v := View{Self: NodeInfo{ID: 2 * selfRank, Pos: pt(true)}}
	for j := 0; j < n; j++ {
		v.Neighbors = append(v.Neighbors, NodeInfo{ID: 2*j + 1, Pos: pt(false)})
	}
	return v
}

// FuzzRNGKernel holds the nearest-first squared-distance RNG kernel to the
// historical Hypot double loop (refRNGSelectInto), and ActualRange to the
// historical per-id Find loop, on views decoded by fuzzView: exact lattice
// ties, co-located nodes, near-tie circles, raw bit patterns and coordinates
// from subnormal to overflowing. The kernel must also append after dst's
// prefix and give the same answer on a Scratch left dirty by another view.
// `go test` runs the seed corpus; `go test -fuzz=FuzzRNGKernel
// ./internal/topology` explores further.
func FuzzRNGKernel(f *testing.F) {
	f.Add(uint8(shapeLattice), uint8(0), []byte{24, 7, 0, 0, 1, 0, 2, 0, 0, 1, 1, 1, 2, 2, 3, 3, 4, 4, 0, 2, 2, 0, 5, 5, 7, 7, 6, 1, 1, 6, 3, 0, 0, 3, 4, 2, 2, 4, 7, 0, 0, 7, 5, 1, 1, 5, 6, 6, 3, 5, 5, 3})
	f.Add(uint8(shapeColocated), uint8(1), []byte{20, 3, 0, 1, 2, 3, 0, 0, 1, 1, 2, 2, 3, 3, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3})
	f.Add(uint8(shapeCircle), uint8(0), []byte{12, 5, 0, 0, 0, 1, 3, 4, 2, 0, 0, 3, 1, 2, 4, 0, 0, 5, 2, 2, 6, 0, 0, 7, 4, 3, 8, 0, 0, 9, 1, 1, 10, 0, 0, 11, 3, 3, 1, 1, 0, 2, 0, 1})
	f.Add(uint8(shapeRawBits), uint8(0), []byte{6, 2,
		0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0, // (+Inf, 0)
		1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, // (smallest subnormal, 0)
		1, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, // (NaN, 1)
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0, // (MaxFloat64, 0)
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0xff, 0, 0, 0, 0, 0, 0, 0, 0, // (-MaxFloat64, 0)
		0, 0, 0, 0, 0, 0, 0x10, 0, 0, 0, 0, 0, 0, 0, 0x10, 0, // (2^-1022, 2^-1022)
		0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0, 0, 0, 0, 0, 0, 0, 0x40, // (1, 2)
	})
	f.Add(uint8(shapeScaled), uint8(0), []byte{16, 4, 1, 0, 0, 1, 1, 1, 2, 0, 0, 2, 255, 0, 0, 255, 3, 4, 4, 3, 127, 0, 0, 127, 128, 128, 5, 5, 2, 2, 1, 3, 3, 1})
	f.Add(uint8(shapeScaled), uint8(15), []byte{16, 4, 1, 0, 0, 1, 1, 1, 2, 0, 0, 2, 255, 0, 0, 255, 3, 4, 4, 3, 127, 0, 0, 127, 128, 128, 5, 5, 2, 2, 1, 3, 3, 1})
	f.Add(uint8(shapeScaled), uint8(223), []byte{16, 4, 1, 0, 0, 1, 1, 1, 2, 0, 0, 2, 255, 0, 0, 255, 3, 4, 4, 3, 127, 0, 0, 127, 128, 128, 5, 5, 2, 2, 1, 3, 3, 1})
	f.Add(uint8(shapeScaled), uint8(255), []byte{16, 4, 1, 0, 0, 1, 1, 1, 2, 0, 0, 2, 255, 0, 0, 255, 3, 4, 4, 3, 127, 0, 0, 127, 128, 128, 5, 5, 2, 2, 1, 3, 3, 1})
	dirty := fuzzView(shapeLattice, 2, []byte{40, 9, 1, 2, 3, 4, 5, 6, 7, 0, 7, 6, 5, 4, 3, 2, 1})
	f.Fuzz(func(t *testing.T, shape, scale uint8, data []byte) {
		v := fuzzView(shape, scale, data)
		want := refRNGSelectInto(v, nil, &Scratch{})
		prefix := []int{-7}
		s := &Scratch{}
		got := RNG{}.SelectInto(v, slices.Clone(prefix), s)
		if !slices.Equal(got[:1], prefix) || !slices.Equal(got[1:], want) {
			t.Fatalf("RNG kernel = %v, reference = %v (prefix %v)\nview %v", got[1:], want, prefix, v)
		}
		RNG{}.SelectInto(dirty, nil, s)
		if again := (RNG{}).SelectInto(v, nil, s); !slices.Equal(again, want) {
			t.Fatalf("RNG kernel on a dirty Scratch = %v, reference = %v\nview %v", again, want, v)
		}
		all := make([]int, 0, len(v.Neighbors))
		for _, nb := range v.Neighbors {
			all = append(all, nb.ID)
		}
		for _, logical := range [][]int{want, all} {
			got, want := ActualRange(v, logical), refActualRange(v, logical)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("ActualRange(%v) = %g, reference = %g\nview %v", logical, got, want, v)
			}
		}
	})
}
