// Package spatial provides a uniform grid index over the simulation arena
// for fast fixed-radius neighbor queries.
//
// The radio model asks "which nodes are within range r of point p right
// now?" once per transmission, and "how many?" once per node at every
// metric sample. With n nodes spread over the arena, bucketing by a cell
// size on the order of the query radius makes both expected O(k) in the
// number of results instead of O(n).
//
// The grid is stored flat in cell order: a counting sort lays the ids out
// cell by cell (row-major cells, ascending ids inside each cell) next to a
// copy of their positions in the same order, so a row of adjacent cells is
// one contiguous run and a disc query is a few linear scans.
package spatial

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"mstc/internal/geom"
)

// Index is a uniform grid over an arena holding one point per node id.
// Build may be called repeatedly to re-index fresh positions; queries are
// read-only and safe to run concurrently with each other (but not with
// Build).
type Index struct {
	arena geom.Rect
	cell  float64
	nx    int
	ny    int
	start []int32      // cell c holds ids[start[c]:start[c+1]]; len nx·ny+1
	ids   []int32      // node ids in (cell, id) order
	pts   []geom.Point // pts[k] is node ids[k]'s indexed position
	cellK []int32      // Build scratch: each point's cell
}

// NewIndex creates an index over the arena with the given cell size.
// A cell size near the typical query radius is a good default; see
// BenchmarkAblationGridCell for the measured trade-off.
func NewIndex(arena geom.Rect, cell float64) (*Index, error) {
	if arena.Empty() {
		return nil, fmt.Errorf("spatial: empty arena")
	}
	if cell <= 0 {
		return nil, fmt.Errorf("spatial: cell size must be positive, got %g", cell)
	}
	nx := int(math.Ceil(arena.Width()/cell)) + 1
	ny := int(math.Ceil(arena.Height()/cell)) + 1
	return &Index{
		arena: arena,
		cell:  cell,
		nx:    nx,
		ny:    ny,
		start: make([]int32, nx*ny+1),
	}, nil
}

// MustIndex is NewIndex that panics on error, for call sites with
// compile-time-constant arguments.
func MustIndex(arena geom.Rect, cell float64) *Index {
	ix, err := NewIndex(arena, cell)
	if err != nil {
		panic(err)
	}
	return ix
}

// cellOf returns p's cell, clamping points outside the arena into the
// nearest edge cell.
func (ix *Index) cellOf(p geom.Point) (cx, cy int) {
	cx = min(max(int((p.X-ix.arena.Min.X)/ix.cell), 0), ix.nx-1)
	cy = min(max(int((p.Y-ix.arena.Min.Y)/ix.cell), 0), ix.ny-1)
	return cx, cy
}

// Reserve sizes the index for n points, so that Build of up to n points
// allocates nothing.
func (ix *Index) Reserve(n int) {
	ix.ids = slices.Grow(ix.ids[:0], n)
	ix.pts = slices.Grow(ix.pts[:0], n)
	ix.cellK = slices.Grow(ix.cellK[:0], n)
}

// Build (re)indexes the given positions; the point at index i belongs to
// node id i. The index keeps its own copy, so the caller may reuse points
// as soon as Build returns. It grows on demand (see Reserve).
//
//manet:noalloc
func (ix *Index) Build(points []geom.Point) {
	n := len(points)
	ix.Reserve(n)
	ix.ids, ix.pts, ix.cellK = ix.ids[:n], ix.pts[:n], ix.cellK[:n]
	// Counting sort: count per cell, turn the counts into running ends,
	// then place ids in descending order while stepping each cell's end
	// back, which leaves start[c] at the cell's first slot and ascending
	// ids inside it.
	clear(ix.start)
	for id, p := range points {
		cx, cy := ix.cellOf(p)
		c := int32(cy*ix.nx + cx)
		ix.cellK[id] = c
		ix.start[c]++
	}
	var end int32
	for c := range ix.start[:len(ix.start)-1] {
		end += ix.start[c]
		ix.start[c] = end
	}
	ix.start[len(ix.start)-1] = int32(n)
	for id := n - 1; id >= 0; id-- {
		c := ix.cellK[id]
		ix.start[c]--
		k := ix.start[c]
		ix.ids[k] = int32(id)
		ix.pts[k] = points[id]
	}
}

// Within appends to dst the ids of all indexed nodes within distance r of p
// (inclusive), in ascending id order, and returns the extended slice.
// Pass a non-nil dst to avoid allocation on hot paths.
func (ix *Index) Within(p geom.Point, r float64, dst []int) []int {
	start := len(dst)
	dst = ix.WithinUnsorted(p, r, dst)
	sort.Ints(dst[start:])
	return dst
}

// WithinUnsorted is Within without the final sort: ids are appended in cell
// scan order (row-major cells, ascending ids inside each cell) — a fixed,
// deterministic order, just not globally ascending. Hot paths that filter
// the candidates further can sort the smaller filtered set instead.
//
//manet:noalloc
func (ix *Index) WithinUnsorted(p geom.Point, r float64, dst []int) []int {
	if r < 0 {
		return dst
	}
	r2 := r * r
	cx0, cy0 := ix.cellOf(geom.Pt(p.X-r, p.Y-r))
	cx1, cy1 := ix.cellOf(geom.Pt(p.X+r, p.Y+r))
	for cy := cy0; cy <= cy1; cy++ {
		row := cy * ix.nx
		lo, hi := ix.start[row+cx0], ix.start[row+cx1+1]
		for k, q := range ix.pts[lo:hi] {
			if q.Dist2(p) <= r2 {
				dst = append(dst, int(ix.ids[int(lo)+k]))
			}
		}
	}
	return dst
}

// CountWithin returns how many indexed points lie within distance r of p
// (inclusive): len(WithinUnsorted(p, r, nil)) without building the list.
//
//manet:noalloc
func (ix *Index) CountWithin(p geom.Point, r float64) int {
	if r < 0 {
		return 0
	}
	r2 := r * r
	count := 0
	cx0, cy0 := ix.cellOf(geom.Pt(p.X-r, p.Y-r))
	cx1, cy1 := ix.cellOf(geom.Pt(p.X+r, p.Y+r))
	for cy := cy0; cy <= cy1; cy++ {
		row := cy * ix.nx
		for _, q := range ix.pts[ix.start[row+cx0]:ix.start[row+cx1+1]] {
			if q.Dist2(p) <= r2 {
				count++
			}
		}
	}
	return count
}
