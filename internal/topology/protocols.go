package topology

import (
	"fmt"
	"math"

	"mstc/internal/geom"
)

// Protocol selects logical neighbors from a consistent local view.
// Implementations must be pure (no state mutated by Select) so that a single
// value can serve every node of the network concurrently.
type Protocol interface {
	// Name returns the short protocol name used in tables ("RNG",
	// "MST", "SPT-2", ...).
	Name() string
	// Select returns the ids of view.Self's logical neighbors, a subset
	// of view.Neighbors' ids, in ascending order. The view must be
	// canonical (View.Canon).
	Select(v View) []int
}

// RNG is the relative-neighborhood-graph-based protocol (§2.1, link-removal
// condition 1 with c = d): link (u, v) is removed iff some witness w in the
// view has cost(u,w) and cost(w,v) both strictly below cost(u,v) in the
// LinkLess total order.
type RNG struct{}

// Name implements Protocol.
func (RNG) Name() string { return "RNG" }

// Select implements Protocol.
func (r RNG) Select(v View) []int {
	return r.SelectInto(v, make([]int, 0, 4), &Scratch{})
}

// SelectInto implements ScratchSelector. It decides every (link, witness)
// test exactly as comparing math.Hypot costs under LinkLess would, but on
// squared distances wherever they are conclusive (see tieBand): Hypot runs
// only for the rare pair whose squared distances fall in each other's tie
// band. The squared distance from Self to each witness is computed once;
// the scan for link (u, v) skips every witness certainly farther from u
// than v with one comparison and stops at the first witness that removes
// the link. TestRNGKernelMatchesReference and FuzzRNGKernel pin the output
// against the historical Hypot double loop.
//
//manet:noalloc
func (RNG) SelectInto(v View, dst []int, s *Scratch) []int {
	u := v.Self
	uw2 := grown(s.costs, len(v.Neighbors))[:0]
	for _, w := range v.Neighbors {
		d2 := u.Pos.Dist2(w.Pos)
		if math.IsNaN(d2) {
			// A NaN coordinate: the Hypot cost is NaN or +Inf and never
			// meets the first removal condition, so the witness is keyed
			// +Inf and skipped as farther than any trusted link.
			d2 = math.Inf(1)
		}
		uw2 = append(uw2, d2)
	}
	s.costs = uw2
	for _, n := range v.Neighbors {
		if !rngRemoved(u, n, uw2, v.Neighbors) {
			dst = append(dst, n.ID)
		}
	}
	return dst
}

// rngRemoved reports whether some witness w removes link (u, n): both
// cost(u, w) and cost(w, n) LinkLess than cost(u, n), costs being Hypot
// distances. uw2[j] is the squared distance from u to nbrs[j], the view's
// neighbors. When the squared distance of (u, n) is not sqTrusted, every
// comparison against it goes through Hypot.
func rngRemoved(u, n NodeInfo, uw2 []float64, nbrs []NodeInfo) bool {
	uv2 := u.Pos.Dist2(n.Pos)
	if !sqTrusted(uv2) {
		cUV := u.Pos.Dist(n.Pos)
		for _, w := range nbrs {
			if w.ID != n.ID &&
				LinkLess(u.Pos.Dist(w.Pos), u.ID, w.ID, cUV, u.ID, n.ID) &&
				LinkLess(w.Pos.Dist(n.Pos), w.ID, n.ID, cUV, u.ID, n.ID) {
				return true
			}
		}
		return false
	}
	lo, hi := tieBand(uv2)
	cUV := -1.0 // Hypot cost of (u, n), computed on first need
	for j, a := range uw2 {
		if a > hi {
			continue // cost(u, w) > cost(u, n)
		}
		w := &nbrs[j]
		if w.ID == n.ID {
			continue
		}
		if a >= lo {
			if cUV < 0 {
				cUV = u.Pos.Dist(n.Pos)
			}
			if !LinkLess(u.Pos.Dist(w.Pos), u.ID, w.ID, cUV, u.ID, n.ID) {
				continue
			}
		}
		wv2 := w.Pos.Dist2(n.Pos)
		if wv2 < lo {
			return true
		}
		if wv2 > hi {
			continue
		}
		if cUV < 0 {
			cUV = u.Pos.Dist(n.Pos)
		}
		if LinkLess(w.Pos.Dist(n.Pos), w.ID, n.ID, cUV, u.ID, n.ID) {
			return true
		}
	}
	return false
}

// Gabriel is the Gabriel-graph special case of the RNG protocol: the
// witness region is the disk with diameter uv instead of the lune. It keeps
// strictly more edges than RNG.
type Gabriel struct{}

// Name implements Protocol.
func (Gabriel) Name() string { return "GG" }

// Select implements Protocol.
func (g Gabriel) Select(v View) []int {
	return g.SelectInto(v, make([]int, 0, 4), &Scratch{})
}

// SelectInto implements ScratchSelector.
//
//manet:noalloc
func (Gabriel) SelectInto(v View, dst []int, _ *Scratch) []int {
	for _, n := range v.Neighbors {
		removed := false
		for _, w := range v.Neighbors {
			if w.ID != n.ID && geom.InGabrielDisk(w.Pos, v.Self.Pos, n.Pos) {
				removed = true
				break
			}
		}
		if !removed {
			dst = append(dst, n.ID)
		}
	}
	return dst
}

// MST is the local-MST-based protocol (LMST, Li/Hou/Sha 2003; link-removal
// condition 3): node u builds a minimum spanning tree over its view — with
// an edge between two view nodes iff their distance is at most Range, the
// normal transmission range — and keeps as logical neighbors exactly the
// nodes adjacent to u in that tree.
type MST struct {
	// Range is the normal transmission range R: only view edges with
	// d <= Range are known to exist in the original topology and may be
	// used by the tree.
	Range float64
}

// Name implements Protocol.
func (MST) Name() string { return "MST" }

// Select implements Protocol.
func (m MST) Select(v View) []int {
	return m.SelectInto(v, make([]int, 0, 4), &Scratch{})
}

// SelectInto implements ScratchSelector. The kernel is graph.PrimMST
// replayed over a dense scratch weight matrix: the per-vertex candidate
// comparison (mstLess), the heap's (key, node) order with sift operations
// matching container/heap's, the ascending-index relaxation order (the
// historical adjacency lists list neighbors ascending), and the
// per-component restart are all replicated, so the kernel commits exactly
// the tree edges the historical viewGraph + graph.PrimMST implementation
// commits — including which of several equal-weight candidates wins.
// TestMSTKernelMatchesPrim pins the equivalence on tie-heavy inputs.
//
//manet:noalloc
func (m MST) SelectInto(v View, dst []int, s *Scratch) []int {
	selfIdx := s.viewNodes(v)
	n := len(s.ids)
	s.w = grown(s.w, n*n)
	r2 := rangeBound(m.Range)
	inf := math.Inf(1)
	for i := 0; i < n; i++ {
		s.w[i*n+i] = inf
		for j := i + 1; j < n; j++ {
			c := inf
			if s.pts[i].Dist2(s.pts[j]) <= r2 {
				c = s.pts[i].Dist(s.pts[j])
			}
			s.w[i*n+j] = c
			s.w[j*n+i] = c
		}
	}
	s.dist = grown(s.dist, n)
	s.pred = grown(s.pred, n)
	s.done = grown(s.done, n)
	bestW, bestFrom, inTree := s.dist, s.pred, s.done
	for i := 0; i < n; i++ {
		bestW[i] = inf
		bestFrom[i] = -1
		inTree[i] = false
	}
	s.heap = s.heap[:0]
	start := len(dst)
	for st := 0; st < n; st++ {
		if inTree[st] {
			continue
		}
		bestW[st] = 0
		s.heap.push(nodeKey{key: 0, node: int32(st), from: -1})
		for len(s.heap) > 0 {
			it := s.heap.pop()
			u := int(it.node)
			if inTree[u] {
				continue
			}
			inTree[u] = true
			if it.from != -1 {
				if int(it.from) == selfIdx {
					dst = append(dst, s.ids[u])
				} else if u == selfIdx {
					dst = append(dst, s.ids[it.from])
				}
			}
			row := s.w[u*n : u*n+n]
			for nb := 0; nb < n; nb++ {
				w := row[nb]
				if math.IsInf(w, 1) || inTree[nb] {
					continue
				}
				if mstLess(w, u, nb, bestW[nb], int(bestFrom[nb]), nb) {
					bestW[nb] = w
					bestFrom[nb] = int32(u)
					s.heap.push(nodeKey{key: w, node: int32(nb), from: int32(u)})
				}
			}
		}
	}
	sortInts(dst[start:])
	return dst
}

// mstLess is graph.PrimMST's candidate-edge order: primarily by weight,
// then by the canonical endpoint pair — a strict total order even with
// equal weights.
func mstLess(w1 float64, a1, b1 int, w2 float64, a2, b2 int) bool {
	if w1 != w2 { //lint:ignore float-eq exact compare is the documented strict total order over edge weights
		return w1 < w2
	}
	if a1 > b1 {
		a1, b1 = b1, a1
	}
	if a2 > b2 {
		a2, b2 = b2, a2
	}
	if a1 != a2 {
		return a1 < a2
	}
	return b1 < b2
}

// SPT is the minimum-energy (shortest-path-tree-based) protocol
// (Rodoplu/Meng 1999, Li/Halpern 2001 restricted to 1-hop information;
// link-removal condition 2): link (u, v) is removed iff the view contains a
// relay path whose total energy cost is strictly below the direct cost.
type SPT struct {
	// Alpha is the path-loss exponent of the energy model d^Alpha + Fixed.
	Alpha float64
	// Fixed is the distance-independent per-hop cost (0 in the paper's
	// simulation).
	Fixed float64
	// Range is the normal transmission range bounding usable view edges.
	Range float64
}

// Name implements Protocol.
func (s SPT) Name() string {
	if s.Alpha == float64(int(s.Alpha)) { //lint:ignore float-eq exact integrality test for display names only
		return fmt.Sprintf("SPT-%d", int(s.Alpha))
	}
	return fmt.Sprintf("SPT-%g", s.Alpha)
}

// Select implements Protocol.
func (s SPT) Select(v View) []int {
	return s.SelectInto(v, make([]int, 0, 4), &Scratch{})
}

// SelectInto implements ScratchSelector. The kernel runs Dijkstra over a
// dense scratch weight matrix instead of Select's historical viewGraph +
// graph.Dijkstra. It settles nodes in the same (distance, index) order with
// the same strict-improvement relaxation, so every computed distance is
// identical; TestSPTKernelMatchesDijkstra pins it.
//
//manet:noalloc
func (sp SPT) SelectInto(v View, dst []int, s *Scratch) []int {
	if sp.Alpha < 1 {
		panic(fmt.Sprintf("topology: EnergyCost alpha %g < 1", sp.Alpha))
	}
	selfIdx := s.viewNodes(v)
	n := len(s.ids)
	s.w = grown(s.w, n*n)
	r2 := rangeBound(sp.Range)
	inf := math.Inf(1)
	for i := 0; i < n; i++ {
		s.w[i*n+i] = inf
		for j := i + 1; j < n; j++ {
			c := inf
			if s.pts[i].Dist2(s.pts[j]) <= r2 {
				c = energyPow(s.pts[i].Dist(s.pts[j]), sp.Alpha) + sp.Fixed
			}
			s.w[i*n+j] = c
			s.w[j*n+i] = c
		}
	}
	dist := s.denseDijkstra(n, selfIdx)
	row := s.w[selfIdx*n : selfIdx*n+n]
	for i, nb := range v.Neighbors {
		idx := i
		if i >= selfIdx {
			idx = i + 1
		}
		// The matrix row holds the direct cost of every in-range link;
		// only an out-of-range neighbor needs it computed.
		direct := row[idx]
		if math.IsInf(direct, 1) {
			direct = energyPow(v.Self.Pos.Dist(nb.Pos), sp.Alpha) + sp.Fixed
		}
		// Keep the link unless a strictly cheaper indirect path exists.
		// dist includes the direct edge, so dist <= direct always holds
		// when the edge is usable; equality means direct is optimal.
		if dist[idx] >= direct {
			dst = append(dst, nb.ID)
		}
	}
	return dst
}

// denseDijkstra is graph.Dijkstra's distance computation over the scratch's
// dense n×n weight matrix (+Inf = no edge), settling nodes in
// nextUnsettled's (distance, index) order.
func (s *Scratch) denseDijkstra(n, src int) []float64 {
	s.startKeys(n, src)
	for {
		u := s.nextUnsettled(n)
		if u < 0 {
			return s.dist
		}
		s.done[u] = true
		row := s.w[u*n : u*n+n]
		for v := 0; v < n; v++ {
			w := row[v]
			if math.IsInf(w, 1) {
				continue
			}
			if nd := s.dist[u] + w; nd < s.dist[v] {
				s.dist[v] = nd
			}
		}
	}
}

// Yao is the Yao-graph-based protocol: the disk around u is divided into K
// equal cones and the nearest view neighbor in each cone is selected.
// Connectivity of the (directed) Yao graph is guaranteed for K >= 6.
type Yao struct {
	// K is the number of cones (>= 1; >= 6 for guaranteed connectivity).
	K int
}

// Name implements Protocol.
func (y Yao) Name() string { return fmt.Sprintf("Yao-%d", y.K) }

// Select implements Protocol.
func (y Yao) Select(v View) []int {
	return y.SelectInto(v, make([]int, 0, y.K), &Scratch{})
}

// SelectInto implements ScratchSelector.
//
//manet:noalloc
func (y Yao) SelectInto(v View, dst []int, s *Scratch) []int {
	if y.K <= 0 {
		panic(fmt.Sprintf("topology: Yao with K = %d", y.K))
	}
	best := grown(s.best, y.K) // index into v.Neighbors, -1 = empty
	s.best = best
	for i := range best {
		best[i] = -1
	}
	for i, n := range v.Neighbors {
		c := geom.ConeIndex(v.Self.Pos, n.Pos, y.K)
		if best[c] == -1 {
			best[c] = i
			continue
		}
		cur := v.Neighbors[best[c]]
		dNew := v.Self.Pos.Dist(n.Pos)
		dCur := v.Self.Pos.Dist(cur.Pos)
		if LinkLess(dNew, v.Self.ID, n.ID, dCur, v.Self.ID, cur.ID) {
			best[c] = i
		}
	}
	start := len(dst)
	for _, i := range best {
		if i != -1 {
			dst = append(dst, v.Neighbors[i].ID)
		}
	}
	sortInts(dst[start:])
	return dst
}

// None is the null protocol: every 1-hop neighbor is logical. It models the
// uncontrolled network (normal transmission range) as a baseline.
type None struct{}

// Name implements Protocol.
func (None) Name() string { return "none" }

// Select implements Protocol.
func (n None) Select(v View) []int {
	return n.SelectInto(v, make([]int, 0, len(v.Neighbors)), &Scratch{})
}

// SelectInto implements ScratchSelector.
//
//manet:noalloc
func (None) SelectInto(v View, dst []int, _ *Scratch) []int {
	for _, n := range v.Neighbors {
		dst = append(dst, n.ID)
	}
	return dst
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
