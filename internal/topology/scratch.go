package topology

import (
	"math"

	"mstc/internal/geom"
)

// Scratch holds the reusable working storage of the allocation-free
// selection kernels (SelectInto / SelectWeakInto): witness-cost caches,
// view index tables, dense weight matrices, per-node keys and Prim's heap.
// The shortest-path kernels extract their minimum by a linear scan
// (nextUnsettled) and need no heap. The zero value is ready to use; buffers
// grow on demand and are retained across calls, so a long-lived caller
// (one per simulated network in package manet) reaches a steady state
// where selection allocates nothing.
//
// A Scratch may be shared by any number of protocol values but never
// across goroutines — it is caller-owned mutable state, which is exactly
// why it is threaded as an explicit parameter instead of living inside
// the (pure, shareable) protocol values.
type Scratch struct {
	costs []float64      // RNG: squared distance self→w; wRNG: cMax(self, w)
	best  []int          // Yao: per-cone best neighbor index
	ids   []int          // MST/SPT/weak: view index -> node id
	pts   []geom.Point   // MST/SPT: view positions in index order
	pos   [][]geom.Point // weak: per-node position sets in index order
	w     []float64      // MST/SPT/weak: dense n×n weight matrix, +Inf = no edge
	dist  []float64      // per-node keys (distance / bottleneck / best weight)
	pred  []int32        // MST: best tree edge source
	done  []bool         // settled / in tree
	heap  nodeKeyHeap    // MST: Prim's lazy candidate heap
}

// ScratchSelector is implemented by protocols with an allocation-free
// selection kernel. SelectInto appends the selected logical neighbor ids
// (ascending) to dst and returns the extended slice; the result is
// bit-identical to Select on the same view. Scratch buffers are grown and
// reused; nothing in the returned slice aliases the Scratch.
type ScratchSelector interface {
	SelectInto(v View, dst []int, s *Scratch) []int
}

// WeakScratchSelector is the weak-consistency analogue of ScratchSelector.
type WeakScratchSelector interface {
	SelectWeakInto(v MultiView, dst []int, s *Scratch) []int
}

// SelectInto runs p's selection appending into dst, through p's
// allocation-free kernel when it has one and through plain Select
// otherwise. Results are identical either way; only allocation behavior
// differs.
//
//manet:noalloc
func SelectInto(p Protocol, v View, dst []int, s *Scratch) []int {
	if ip, ok := p.(ScratchSelector); ok {
		return ip.SelectInto(v, dst, s)
	}
	return append(dst, p.Select(v)...)
}

// SelectWeakInto is SelectInto for weak-consistency selectors.
//
//manet:noalloc
func SelectWeakInto(p WeakProtocol, v MultiView, dst []int, s *Scratch) []int {
	if ip, ok := p.(WeakScratchSelector); ok {
		return ip.SelectWeakInto(v, dst, s)
	}
	return append(dst, p.SelectWeak(v)...)
}

// grown returns buf resized to n, growing the backing array if needed.
func grown[T any](buf []T, n int) []T {
	if cap(buf) < n {
		//lint:ignore noalloc amortized growth: Scratch buffers are retained across calls, so long-lived callers reach an allocation-free steady state (pinned by the conformance tests)
		return make([]T, n, n+n/2+8)
	}
	return buf[:n]
}

// viewNodes lays the view's nodes out in ascending real-id order (Self
// inserted at its id rank) into the scratch index tables, mirroring
// viewGraph's indexing so index-based tie-breaking matches the global
// id-based total order. It returns Self's index.
func (s *Scratch) viewNodes(v View) (selfIdx int) {
	n := len(v.Neighbors) + 1
	s.ids = grown(s.ids, n)[:0]
	s.pts = grown(s.pts, n)[:0]
	selfIdx = -1
	for _, nb := range v.Neighbors {
		if selfIdx == -1 && v.Self.ID < nb.ID {
			selfIdx = len(s.ids)
			s.ids = append(s.ids, v.Self.ID)
			s.pts = append(s.pts, v.Self.Pos)
		}
		s.ids = append(s.ids, nb.ID)
		s.pts = append(s.pts, nb.Pos)
	}
	if selfIdx == -1 {
		selfIdx = len(s.ids)
		s.ids = append(s.ids, v.Self.ID)
		s.pts = append(s.pts, v.Self.Pos)
	}
	return selfIdx
}

// startKeys readies dist and done for a shortest-path kernel over n nodes:
// every node unsettled at +Inf, except src at 0.
func (s *Scratch) startKeys(n, src int) {
	s.dist = grown(s.dist, n)
	s.done = grown(s.done, n)
	for i := 0; i < n; i++ {
		s.dist[i] = math.Inf(1)
		s.done[i] = false
	}
	s.dist[src] = 0
}

// nextUnsettled returns the node that is not yet done with the least
// (dist, index), or -1 when every such node is unreachable (+Inf). It is
// the extract-min of the dense shortest-path kernels (denseDijkstra,
// denseShortest, denseMinimax). A lazy heap of (key, node) entries would
// pop the same node: each unsettled reachable node has an entry keyed by
// its current dist, and its stale entries carry larger keys. At view sizes
// (~25 nodes) the scan costs less than the heap's pushes and pops.
func (s *Scratch) nextUnsettled(n int) int {
	u, best := -1, math.Inf(1)
	for i, d := range s.dist[:n] {
		if d < best && !s.done[i] {
			u, best = i, d
		}
	}
	return u
}

// nodeKeyHeap is a hand-rolled binary min-heap over (key, node) items,
// ordered by key then node index — the same comparator as graph.keyHeap —
// with sift-up/sift-down operations that perform exactly container/heap's
// swap sequences. Identical comparators and identical sift behavior mean
// identical layouts and pop orders even among fully equal items. Only MST's
// Prim replay uses it: there a stale entry that ties with the current
// best carries its own edge source, so which equal entry pops first decides
// the tree, and a linear scan could not reproduce graph.PrimMST. The from
// field is payload (Prim's candidate edge source), never compared.
type nodeKeyHeap []nodeKey

type nodeKey struct {
	key  float64
	node int32
	from int32
}

func (h nodeKeyHeap) less(i, j int) bool {
	if h[i].key != h[j].key { //lint:ignore float-eq exact compare keeps the heap's total order deterministic
		return h[i].key < h[j].key
	}
	return h[i].node < h[j].node
}

func (h *nodeKeyHeap) push(it nodeKey) {
	*h = append(*h, it)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *nodeKeyHeap) pop() nodeKey {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	*h = q[:n]
	q = q[:n]
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && q.less(right, left) {
			child = right
		}
		if !q.less(child, i) {
			break
		}
		q[i], q[child] = q[child], q[i]
		i = child
	}
	return top
}

// rangeBound converts a maximum range into the squared-distance bound used
// by the view-graph constructions (maxRange <= 0 or +Inf means unbounded).
func rangeBound(maxRange float64) float64 {
	if maxRange <= 0 || math.IsInf(maxRange, 1) {
		return math.Inf(1)
	}
	return maxRange * maxRange
}
