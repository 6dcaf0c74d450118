package topology

import (
	"container/heap"
	"math"

	"mstc/internal/geom"
	"mstc/internal/graph"
)

// This file holds the historical graph-based selection paths. The scratch
// kernels in protocols.go and weak.go replaced them; scratch_test.go pins
// the kernels against them.

// refRNGSelectInto is the historical RNG.SelectInto kernel, verbatim: the
// double loop over Hypot costs with cost(u, w) cached per witness. The
// nearest-first squared-distance kernel must match it bit for bit.
func refRNGSelectInto(v View, dst []int, s *Scratch) []int {
	u := v.Self
	// Cache cost(u, w) per witness: the naive double loop recomputes each
	// of these d times, and the distance (hypot) dominates the selection
	// profile. The witness cost cost(w, v) is only needed once the first
	// LinkLess condition holds, so it is computed lazily — same values,
	// same comparisons, identical output.
	cU := grown(s.costs, len(v.Neighbors))[:0]
	for _, n := range v.Neighbors {
		cU = append(cU, u.Pos.Dist(n.Pos))
	}
	s.costs = cU
	for i, n := range v.Neighbors {
		cUV := cU[i]
		removed := false
		for j, w := range v.Neighbors {
			if w.ID == n.ID {
				continue
			}
			if !LinkLess(cU[j], u.ID, w.ID, cUV, u.ID, n.ID) {
				continue
			}
			cWV := w.Pos.Dist(n.Pos)
			if LinkLess(cWV, w.ID, n.ID, cUV, u.ID, n.ID) {
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

// refActualRange is the historical ActualRange: a linear search of the
// view per logical id (the former View.Find) and a Hypot for every logical
// neighbor.
func refActualRange(v View, logical []int) float64 {
	r := 0.0
	for _, id := range logical {
		for _, n := range v.Neighbors {
			if n.ID == id {
				if d := v.Self.Pos.Dist(n.Pos); d > r {
					r = d
				}
				break
			}
		}
	}
	return r
}

// viewGraph builds the local-view graph used by MST and SPT selection.
// View nodes are indexed in ascending real-id order so that the index-based
// tie-breaking inside graph.PrimMST and graph.Dijkstra coincides with the
// paper's global id-based total order — essential for different nodes'
// local computations to agree on equal-cost links (Theorem 1 needs a single
// total order shared by all nodes). An edge joins two view nodes iff their
// distance is at most maxRange (maxRange <= 0 or +Inf means unbounded),
// weighted by fn(distance). It returns the index→id table, Self's index,
// and the graph.
func viewGraph(v View, maxRange float64, fn CostFn) (ids []int, selfIdx int, g *graph.Undirected) {
	n := len(v.Neighbors) + 1
	ids = make([]int, 0, n)
	pts := make([]geom.Point, 0, n)
	selfIdx = -1
	// v is canonical: neighbors ascend by id. Insert Self in id order.
	for _, nb := range v.Neighbors {
		if selfIdx == -1 && v.Self.ID < nb.ID {
			selfIdx = len(ids)
			ids = append(ids, v.Self.ID)
			pts = append(pts, v.Self.Pos)
		}
		ids = append(ids, nb.ID)
		pts = append(pts, nb.Pos)
	}
	if selfIdx == -1 {
		selfIdx = len(ids)
		ids = append(ids, v.Self.ID)
		pts = append(pts, v.Self.Pos)
	}
	g = graph.NewUndirected(n)
	r2 := maxRange * maxRange
	if maxRange <= 0 || math.IsInf(maxRange, 1) {
		r2 = math.Inf(1)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if pts[i].Dist2(pts[j]) <= r2 {
				g.AddEdge(i, j, fn(pts[i].Dist(pts[j])))
			}
		}
	}
	return ids, selfIdx, g
}

// multiGraph is the dense pessimistic-cost graph over a MultiView: nodes in
// ascending id order, edge weight = cMax, edges restricted to pairs whose
// cMax certifies the link exists (cMax <= fn(Range)). It is the reference
// implementation the weak scratch kernels are tested against.
type multiGraph struct {
	ids     []int
	idx     map[int]int
	selfIdx int
	w       [][]float64 // cMax, +Inf if unusable
}

func newMultiGraph(v MultiView, maxRange float64, fn CostFn) *multiGraph {
	n := len(v.Neighbors) + 1
	type entry struct {
		id  int
		pos []geom.Point
	}
	entries := make([]entry, 0, n)
	placed := false
	for _, nb := range v.Neighbors {
		if !placed && v.Self.ID < nb.ID {
			entries = append(entries, entry{v.Self.ID, v.Self.Positions})
			placed = true
		}
		entries = append(entries, entry{nb.ID, nb.Positions})
	}
	if !placed {
		entries = append(entries, entry{v.Self.ID, v.Self.Positions})
	}
	mg := &multiGraph{
		ids: make([]int, n),
		idx: make(map[int]int, n),
		w:   make([][]float64, n),
	}
	limit := math.Inf(1)
	if maxRange > 0 && !math.IsInf(maxRange, 1) {
		limit = fn(maxRange)
	}
	for i, e := range entries {
		mg.ids[i] = e.id
		mg.idx[e.id] = i
		if e.id == v.Self.ID {
			mg.selfIdx = i
		}
		mg.w[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		mg.w[i][i] = 0
		for j := i + 1; j < n; j++ {
			_, cMax := CostRange(entries[i].pos, entries[j].pos, fn)
			if cMax > limit {
				cMax = math.Inf(1)
			}
			mg.w[i][j] = cMax
			mg.w[j][i] = cMax
		}
	}
	return mg
}

// minimaxFromSelf returns, per node index, the minimal over paths from self
// of the maximal edge weight along the path (bottleneck shortest path).
func (mg *multiGraph) minimaxFromSelf() []float64 {
	n := len(mg.ids)
	key := make([]float64, n)
	done := make([]bool, n)
	for i := range key {
		key[i] = math.Inf(1)
	}
	key[mg.selfIdx] = 0
	pq := &f64Heap{{node: mg.selfIdx, key: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(f64Item)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for v := 0; v < n; v++ {
			if v == u || done[v] {
				continue
			}
			nk := math.Max(key[u], mg.w[u][v])
			if nk < key[v] {
				key[v] = nk
				heap.Push(pq, f64Item{node: v, key: nk})
			}
		}
	}
	return key
}

// shortestFromSelf returns additive shortest-path distances from self over
// the pessimistic weights.
func (mg *multiGraph) shortestFromSelf() []float64 {
	n := len(mg.ids)
	dist := make([]float64, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[mg.selfIdx] = 0
	pq := &f64Heap{{node: mg.selfIdx, key: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(f64Item)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for v := 0; v < n; v++ {
			if v == u || done[v] || math.IsInf(mg.w[u][v], 1) {
				continue
			}
			if nd := dist[u] + mg.w[u][v]; nd < dist[v] {
				dist[v] = nd
				heap.Push(pq, f64Item{node: v, key: nd})
			}
		}
	}
	return dist
}

type f64Item struct {
	node int
	key  float64
}

type f64Heap []f64Item

func (h f64Heap) Len() int { return len(h) }
func (h f64Heap) Less(i, j int) bool {
	if h[i].key != h[j].key { //lint:ignore float-eq exact compare keeps the heap's total order deterministic
		return h[i].key < h[j].key
	}
	return h[i].node < h[j].node
}
func (h f64Heap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *f64Heap) Push(x any)   { *h = append(*h, x.(f64Item)) }
func (h *f64Heap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }
