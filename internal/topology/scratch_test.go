package topology

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"mstc/internal/geom"
	"mstc/internal/graph"
	"mstc/internal/xrand"
)

// randView builds a random canonical view with ids drawn from a sparse id
// space. Coordinates snap to a coarse grid so equal distances (and therefore
// cost ties) actually occur, exercising every tie-break path.
func randView(rng *xrand.Source, maxNbrs int) View {
	n := rng.Intn(maxNbrs + 1)
	ids := rng.Perm(3 * (n + 1))[: n+1 : n+1]
	sortInts(ids)
	selfAt := rng.Intn(n + 1)
	pt := func() geom.Point {
		return geom.Pt(float64(rng.Intn(12))*25, float64(rng.Intn(12))*25)
	}
	v := View{Self: NodeInfo{ID: ids[selfAt], Pos: pt()}}
	for i, id := range ids {
		if i == selfAt {
			continue
		}
		v.Neighbors = append(v.Neighbors, NodeInfo{ID: id, Pos: pt()})
	}
	return v.Canon()
}

// colocated returns a copy of v in which about a third of the neighbors
// sit exactly on Self or on another view node: zero-distance links give
// zero-cost edges (with Fixed = 0) and equal shortest-path keys.
func colocated(rng *xrand.Source, v View) View {
	out := View{Self: v.Self, Neighbors: append([]NodeInfo(nil), v.Neighbors...)}
	for i := range out.Neighbors {
		if rng.Intn(3) != 0 {
			continue
		}
		if j := rng.Intn(len(out.Neighbors) + 1); j == len(out.Neighbors) {
			out.Neighbors[i].Pos = out.Self.Pos
		} else {
			out.Neighbors[i].Pos = out.Neighbors[j].Pos
		}
	}
	return out
}

// randMultiView is randView with up to k positions per node.
func randMultiView(rng *xrand.Source, maxNbrs, k int) MultiView {
	v := randView(rng, maxNbrs)
	multi := func(p geom.Point) []geom.Point {
		pos := []geom.Point{p}
		for len(pos) < 1+rng.Intn(k) {
			pos = append(pos, geom.Pt(p.X+float64(rng.Intn(5))*10, p.Y+float64(rng.Intn(5))*10))
		}
		return pos
	}
	mv := MultiView{Self: MultiNodeInfo{ID: v.Self.ID, Positions: multi(v.Self.Pos)}}
	for _, nb := range v.Neighbors {
		mv.Neighbors = append(mv.Neighbors, MultiNodeInfo{ID: nb.ID, Positions: multi(nb.Pos)})
	}
	return mv
}

// refMSTSelect is the historical MST.Select implementation (viewGraph +
// graph.PrimMST), kept as the reference the Prim-replay kernel must match.
func refMSTSelect(m MST, v View) []int {
	ids, selfIdx, g := viewGraph(v, m.Range, DistanceCost)
	edges, _ := graph.PrimMST(g)
	out := make([]int, 0, 4)
	for _, e := range edges {
		if e.U == selfIdx {
			out = append(out, ids[e.V])
		} else if e.V == selfIdx {
			out = append(out, ids[e.U])
		}
	}
	sortInts(out)
	return out
}

// refSPTSelect is the historical SPT.Select implementation (viewGraph +
// graph.Dijkstra), kept as the reference the dense-Dijkstra kernel must
// match.
func refSPTSelect(s SPT, v View) []int {
	cost := EnergyCost(s.Alpha, s.Fixed)
	ids, selfIdx, g := viewGraph(v, s.Range, cost)
	dist, _ := graph.Dijkstra(g, selfIdx)
	out := make([]int, 0, 4)
	idx := make(map[int]int, len(ids))
	for i, id := range ids {
		idx[id] = i
	}
	for _, n := range v.Neighbors {
		direct := cost(v.Self.Pos.Dist(n.Pos))
		if dist[idx[n.ID]] >= direct {
			out = append(out, n.ID)
		}
	}
	return out
}

// refWeakRNGSelect is the historical WeakRNG.SelectWeak: the plain double
// loop that recomputes both witness costs for every candidate link.
func refWeakRNGSelect(v MultiView) []int {
	out := make([]int, 0, 4)
	for _, n := range v.Neighbors {
		cMinUV, _ := CostRange(v.Self.Positions, n.Positions, DistanceCost)
		removed := false
		for _, w := range v.Neighbors {
			if w.ID == n.ID {
				continue
			}
			_, cMaxUW := CostRange(v.Self.Positions, w.Positions, DistanceCost)
			_, cMaxWV := CostRange(w.Positions, n.Positions, DistanceCost)
			if cMinUV > math.Max(cMaxUW, cMaxWV) {
				removed = true
				break
			}
		}
		if !removed {
			out = append(out, n.ID)
		}
	}
	sortInts(out)
	return out
}

// refWeakMSTSelect is the historical WeakMST.SelectWeak (multiGraph +
// minimaxFromSelf).
func refWeakMSTSelect(m WeakMST, v MultiView) []int {
	mg := newMultiGraph(v, m.Range, DistanceCost)
	bottleneck := mg.minimaxFromSelf()
	out := make([]int, 0, 4)
	for _, n := range v.Neighbors {
		cMinUV, _ := CostRange(v.Self.Positions, n.Positions, DistanceCost)
		if !(cMinUV > bottleneck[mg.idx[n.ID]]) {
			out = append(out, n.ID)
		}
	}
	sortInts(out)
	return out
}

// refWeakSPTSelect is the historical WeakSPT.SelectWeak (multiGraph +
// shortestFromSelf).
func refWeakSPTSelect(s WeakSPT, v MultiView) []int {
	cost := EnergyCost(s.Alpha, s.Fixed)
	mg := newMultiGraph(v, s.Range, cost)
	dist := mg.shortestFromSelf()
	out := make([]int, 0, 4)
	for _, n := range v.Neighbors {
		cMinUV, _ := CostRange(v.Self.Positions, n.Positions, cost)
		if !(cMinUV > dist[mg.idx[n.ID]]) {
			out = append(out, n.ID)
		}
	}
	sortInts(out)
	return out
}

func sameSet(t *testing.T, label string, got, want []int) {
	t.Helper()
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: got %v, want %v", label, got, want)
	}
}

// TestMSTKernelMatchesPrim pins the kernel against graph.PrimMST. The
// kernel is a literal replay of Prim over a dense matrix, so it must
// reproduce Prim's tie behavior exactly — including stale heap entries
// committing their recorded edge source — which the grid-snapped
// coordinates (forcing equal edge weights) exercise.
func TestMSTKernelMatchesPrim(t *testing.T) {
	rng := xrand.New(71)
	s := &Scratch{}
	for trial := 0; trial < 400; trial++ {
		v := randView(rng, 24)
		for _, r := range []float64{0, 120, 275, 1e9} {
			m := MST{Range: r}
			got := m.SelectInto(v, nil, s)
			sameSet(t, fmt.Sprintf("trial %d range %g", trial, r), got, refMSTSelect(m, v))
		}
	}
}

// TestSPTKernelMatchesDijkstra pins the dense-Dijkstra kernel against the
// historical viewGraph + graph.Dijkstra path, on grid-snapped views and on
// views with co-located nodes (zero-cost edges, equal keys).
func TestSPTKernelMatchesDijkstra(t *testing.T) {
	rng := xrand.New(72)
	s := &Scratch{}
	for trial := 0; trial < 400; trial++ {
		v := randView(rng, 24)
		for k, view := range []View{v, colocated(rng, v)} {
			for _, p := range []SPT{
				{Alpha: 2, Range: 275},
				{Alpha: 4, Range: 275},
				{Alpha: 2, Fixed: 1000, Range: 120},
				{Alpha: 1, Range: 0},
			} {
				got := p.SelectInto(view, nil, s)
				sameSet(t, fmt.Sprintf("trial %d view %d %s", trial, k, p.Name()), got, refSPTSelect(p, view))
			}
		}
	}
}

// TestRNGKernelMatchesReference pins the squared-distance RNG kernel
// against the historical Hypot double loop on grid-snapped views (exact
// cost ties), on views with co-located nodes, and on both scaled by 2^±1000
// (squared distances that underflow or overflow).
func TestRNGKernelMatchesReference(t *testing.T) {
	rng := xrand.New(76)
	s := &Scratch{}
	scaled := func(v View, e int) View {
		out := View{Self: v.Self, Neighbors: append([]NodeInfo(nil), v.Neighbors...)}
		out.Self.Pos = geom.Pt(math.Ldexp(v.Self.Pos.X, e), math.Ldexp(v.Self.Pos.Y, e))
		for i, nb := range out.Neighbors {
			out.Neighbors[i].Pos = geom.Pt(math.Ldexp(nb.Pos.X, e), math.Ldexp(nb.Pos.Y, e))
		}
		return out
	}
	for trial := 0; trial < 400; trial++ {
		v := randView(rng, 40)
		for k, view := range []View{v, colocated(rng, v), scaled(v, -1000), scaled(v, 1000)} {
			got := RNG{}.SelectInto(view, nil, s)
			sameSet(t, fmt.Sprintf("trial %d view %d", trial, k), got, refRNGSelectInto(view, nil, &Scratch{}))
		}
	}
}

// TestEnergyPowMatchesMathPow pins energyPow bit for bit against math.Pow:
// the multiply path for alpha 2 and 4 at the extremes, across the bands
// whose results are subnormal (where math.Pow rounds twice), and densely
// over simulated link lengths; any other alpha must be math.Pow itself.
func TestEnergyPowMatchesMathPow(t *testing.T) {
	same := func(d, alpha float64) {
		t.Helper()
		if got, want := energyPow(d, alpha), math.Pow(d, alpha); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("energyPow(%g, %g) = %g, math.Pow = %g", d, alpha, got, want)
		}
	}
	for _, alpha := range []float64{2, 4} {
		for _, d := range []float64{0, math.SmallestNonzeroFloat64, 1e-160, 1e160, math.MaxFloat64, math.Inf(1), math.NaN()} {
			same(d, alpha)
		}
		// d² is subnormal for d below ~1.5e-154, d⁴ for d below ~1.2e-77.
		for _, band := range [][2]float64{{1e-170, 1e-150}, {1e-85, 1e-75}} {
			lo, hi := math.Log(band[0]), math.Log(band[1])
			for i := 0; i < 100000; i++ {
				same(math.Exp(lo+(hi-lo)*float64(i)/100000), alpha)
			}
		}
		for i := 0; i <= 400000; i++ {
			same(float64(i)*0.001, alpha)
		}
	}
	for _, alpha := range []float64{1, 2.5, 3, 3.999} {
		for _, d := range []float64{0, 1e-160, 0.5, 137.25, 250, 1e160} {
			same(d, alpha)
		}
	}
}

// TestWeakKernelsMatchReference pins the weak-consistency scratch kernels
// against the historical double loop (wRNG) and multiGraph (wMST, wSPT)
// implementations.
func TestWeakKernelsMatchReference(t *testing.T) {
	rng := xrand.New(73)
	s := &Scratch{}
	for trial := 0; trial < 300; trial++ {
		mv := randMultiView(rng, 16, 3)
		sameSet(t, fmt.Sprintf("trial %d wRNG", trial),
			WeakRNG{}.SelectWeakInto(mv, nil, s), refWeakRNGSelect(mv))
		for _, r := range []float64{0, 150, 275} {
			m := WeakMST{Range: r}
			sameSet(t, fmt.Sprintf("trial %d wMST range %g", trial, r),
				m.SelectWeakInto(mv, nil, s), refWeakMSTSelect(m, mv))
			for _, alpha := range []float64{2, 4} {
				p := WeakSPT{Alpha: alpha, Range: r}
				sameSet(t, fmt.Sprintf("trial %d %s range %g", trial, p.Name(), r),
					p.SelectWeakInto(mv, nil, s), refWeakSPTSelect(p, mv))
			}
		}
	}
}

// TestSelectIntoMatchesSelect fuzzes every registered protocol: the kernel
// must append exactly Select's output after any existing dst prefix, with a
// Scratch shared dirty across protocols and trials.
func TestSelectIntoMatchesSelect(t *testing.T) {
	names := []string{"MST", "RNG", "GG", "SPT-2", "SPT-4", "Yao-6", "CBTC", "CBTC-56", "KNeigh-9", "none"}
	rng := xrand.New(74)
	s := &Scratch{}
	prefix := []int{-7, 99}
	for trial := 0; trial < 250; trial++ {
		v := randView(rng, 20)
		for _, name := range names {
			p, err := ByName(name, 275)
			if err != nil {
				t.Fatal(err)
			}
			want := p.Select(v)
			got := SelectInto(p, v, append([]int(nil), prefix...), s)
			if !reflect.DeepEqual(got[:len(prefix)], prefix) {
				t.Fatalf("trial %d %s: dst prefix clobbered: %v", trial, name, got)
			}
			sameSet(t, fmt.Sprintf("trial %d %s", trial, name), got[len(prefix):], want)
		}
	}
}

// TestSelectWeakIntoMatchesSelectWeak is the weak-protocol analogue.
func TestSelectWeakIntoMatchesSelectWeak(t *testing.T) {
	names := []string{"MST", "RNG", "SPT-2", "SPT-4"}
	rng := xrand.New(75)
	s := &Scratch{}
	prefix := []int{-3}
	for trial := 0; trial < 200; trial++ {
		mv := randMultiView(rng, 14, 3)
		for _, name := range names {
			p, err := WeakByName(name, 275)
			if err != nil {
				t.Fatal(err)
			}
			want := p.SelectWeak(mv)
			got := SelectWeakInto(p, mv, append([]int(nil), prefix...), s)
			if !reflect.DeepEqual(got[:len(prefix)], prefix) {
				t.Fatalf("trial %d w%s: dst prefix clobbered: %v", trial, name, got)
			}
			sameSet(t, fmt.Sprintf("trial %d w%s", trial, name), got[len(prefix):], want)
		}
	}
}
