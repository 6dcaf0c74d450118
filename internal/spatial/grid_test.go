package spatial

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"mstc/internal/geom"
	"mstc/internal/mobility"
	"mstc/internal/xrand"
)

var arena = geom.Square(900)

func TestNewIndexValidation(t *testing.T) {
	if _, err := NewIndex(arena, 0); err == nil {
		t.Error("cell=0 accepted")
	}
	if _, err := NewIndex(arena, -5); err == nil {
		t.Error("negative cell accepted")
	}
	if _, err := NewIndex(geom.Rect{Min: geom.Pt(1, 1), Max: geom.Pt(0, 0)}, 10); err == nil {
		t.Error("empty arena accepted")
	}
	if _, err := NewIndex(arena, 250); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestMustIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustIndex should panic on bad cell")
		}
	}()
	MustIndex(arena, 0)
}

func TestWithinSimple(t *testing.T) {
	ix := MustIndex(arena, 100)
	pts := []geom.Point{
		geom.Pt(100, 100), // 0
		geom.Pt(150, 100), // 1: 50 from 0
		geom.Pt(100, 400), // 2: 300 from 0
		geom.Pt(103, 104), // 3: 5 from 0
	}
	ix.Build(pts)
	got := ix.Within(geom.Pt(100, 100), 60, nil)
	want := []int{0, 1, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Within = %v, want %v", got, want)
	}
	// Boundary inclusive.
	got = ix.Within(geom.Pt(100, 100), 50, nil)
	want = []int{0, 1, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Within(50) = %v, want %v (boundary inclusive)", got, want)
	}
	got = ix.Within(geom.Pt(100, 100), 49.999, nil)
	want = []int{0, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Within(49.999) = %v, want %v", got, want)
	}
}

func TestWithinNegativeRadius(t *testing.T) {
	ix := MustIndex(arena, 100)
	ix.Build([]geom.Point{geom.Pt(1, 1)})
	if got := ix.Within(geom.Pt(1, 1), -1, nil); len(got) != 0 {
		t.Errorf("negative radius returned %v", got)
	}
}

func TestWithinOfExcludesSelf(t *testing.T) {
	ix := MustIndex(arena, 100)
	pts := []geom.Point{geom.Pt(10, 10), geom.Pt(20, 10), geom.Pt(880, 880)}
	ix.Build(pts)
	got := withinOf(ix, pts, 0, 50, nil)
	if !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("WithinOf(0) = %v, want [1]", got)
	}
	got = withinOf(ix, pts, 2, 50, nil)
	if len(got) != 0 {
		t.Errorf("WithinOf(2) = %v, want empty", got)
	}
}

func TestWithinMatchesBruteForce(t *testing.T) {
	f := func(seed uint64, cellSel, radSel uint8) bool {
		rng := xrand.New(seed)
		n := 1 + rng.Intn(200)
		pts := mobility.UniformPoints(arena, n, rng)
		cell := []float64{25, 50, 125, 250, 500, 2000}[int(cellSel)%6]
		r := []float64{0, 10, 50, 250, 900, 1500}[int(radSel)%6]
		ix := MustIndex(arena, cell)
		ix.Build(pts)
		for trial := 0; trial < 10; trial++ {
			q := geom.Pt(rng.Uniform(-100, 1000), rng.Uniform(-100, 1000))
			got := ix.Within(q, r, nil)
			want := bruteWithin(pts, q, r, nil)
			if !reflect.DeepEqual(got, want) {
				t.Logf("mismatch: n=%d cell=%v r=%v q=%v got=%v want=%v", n, cell, r, q, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWithinSortedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		pts := mobility.UniformPoints(arena, 150, rng)
		ix := MustIndex(arena, 125)
		ix.Build(pts)
		got := ix.Within(geom.Pt(450, 450), 300, nil)
		return sort.IntsAreSorted(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWithinAppendsToDst(t *testing.T) {
	ix := MustIndex(arena, 100)
	ix.Build([]geom.Point{geom.Pt(5, 5)})
	dst := []int{99}
	got := ix.Within(geom.Pt(5, 5), 1, dst)
	if !reflect.DeepEqual(got, []int{99, 0}) {
		t.Errorf("append semantics broken: %v", got)
	}
}

func TestRebuild(t *testing.T) {
	ix := MustIndex(arena, 100)
	ix.Build([]geom.Point{geom.Pt(5, 5), geom.Pt(800, 800)})
	if got := ix.Within(geom.Pt(5, 5), 10, nil); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("first build: %v", got)
	}
	// Move node 0 far away; rebuild must forget the old cell.
	ix.Build([]geom.Point{geom.Pt(800, 805), geom.Pt(800, 800)})
	if got := ix.Within(geom.Pt(5, 5), 10, nil); len(got) != 0 {
		t.Errorf("stale entries after rebuild: %v", got)
	}
	if got := ix.Within(geom.Pt(800, 802), 10, nil); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("rebuilt positions wrong: %v", got)
	}
}

func TestPairs(t *testing.T) {
	ix := MustIndex(arena, 100)
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(30, 0), geom.Pt(60, 0), geom.Pt(500, 500),
	}
	ix.Build(pts)
	var got [][2]int
	pairs(ix, pts, 40, func(i, j int) { got = append(got, [2]int{i, j}) })
	want := [][2]int{{0, 1}, {1, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Pairs = %v, want %v", got, want)
	}
}

func TestPairsCompleteAgainstBrute(t *testing.T) {
	rng := xrand.New(77)
	pts := mobility.UniformPoints(arena, 120, rng)
	ix := MustIndex(arena, 125)
	ix.Build(pts)
	const r = 250.0
	got := map[[2]int]bool{}
	pairs(ix, pts, r, func(i, j int) {
		if i >= j {
			t.Fatalf("Pairs emitted i >= j: (%d, %d)", i, j)
		}
		if got[[2]int{i, j}] {
			t.Fatalf("Pairs emitted duplicate (%d, %d)", i, j)
		}
		got[[2]int{i, j}] = true
	})
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if pts[i].Dist(pts[j]) <= r && !got[[2]int{i, j}] {
				t.Errorf("missing pair (%d, %d)", i, j)
			}
		}
	}
}

func TestPointsOutsideArenaStillIndexed(t *testing.T) {
	// Clamping to edge cells must not lose points that stray outside the
	// declared arena (defensive: mobility clamps, but the index should be
	// robust).
	ix := MustIndex(arena, 100)
	ix.Build([]geom.Point{geom.Pt(-50, -50), geom.Pt(950, 950)})
	if got := ix.Within(geom.Pt(-50, -50), 1, nil); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("outside-arena point lost: %v", got)
	}
	if got := ix.Within(geom.Pt(950, 950), 1, nil); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("outside-arena point lost: %v", got)
	}
}

func BenchmarkWithinGrid(b *testing.B) {
	rng := xrand.New(1)
	pts := mobility.UniformPoints(arena, 100, rng)
	ix := MustIndex(arena, 125)
	ix.Build(pts)
	buf := make([]int, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = ix.Within(pts[i%100], 250, buf[:0])
	}
}

func BenchmarkWithinBrute(b *testing.B) {
	rng := xrand.New(1)
	pts := mobility.UniformPoints(arena, 100, rng)
	buf := make([]int, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = bruteWithin(pts, pts[i%100], 250, buf[:0])
	}
}

// withinOf is Within centered on pts[id] (the points ix was built from),
// with id itself excluded from the result.
func withinOf(ix *Index, pts []geom.Point, id int, r float64, dst []int) []int {
	start := len(dst)
	dst = ix.Within(pts[id], r, dst)
	out := dst[start:start]
	for _, v := range dst[start:] {
		if v != id {
			out = append(out, v)
		}
	}
	return dst[:start+len(out)]
}

// pairs calls fn(i, j) for every pair of distinct points of pts (the points
// ix was built from) with distance at most r, with i < j, in lexicographic
// order.
func pairs(ix *Index, pts []geom.Point, r float64, fn func(i, j int)) {
	if r < 0 {
		return
	}
	buf := make([]int, 0, 64)
	for i := range pts {
		buf = ix.Within(pts[i], r, buf[:0])
		for _, j := range buf {
			if j > i {
				fn(i, j)
			}
		}
	}
}

// bruteWithin is the O(n) reference implementation of Within.
func bruteWithin(points []geom.Point, p geom.Point, r float64, dst []int) []int {
	r2 := r * r
	for id := range points {
		if points[id].Dist2(p) <= r2 {
			dst = append(dst, id)
		}
	}
	return dst
}

// refWithinUnsorted is the reference scan over the per-cell slice layout
// the flat index replaced: cells filled in ascending id order, visited
// row-major.
func refWithinUnsorted(ix *Index, pts []geom.Point, p geom.Point, r float64) []int {
	cells := make([][]int32, ix.nx*ix.ny)
	for id, q := range pts {
		cx, cy := ix.cellOf(q)
		cells[cy*ix.nx+cx] = append(cells[cy*ix.nx+cx], int32(id))
	}
	var out []int
	if r < 0 {
		return out
	}
	cx0, cy0 := ix.cellOf(geom.Pt(p.X-r, p.Y-r))
	cx1, cy1 := ix.cellOf(geom.Pt(p.X+r, p.Y+r))
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			for _, id := range cells[cy*ix.nx+cx] {
				if pts[id].Dist2(p) <= r*r {
					out = append(out, int(id))
				}
			}
		}
	}
	return out
}

// TestWithinUnsortedOrderPinned pins WithinUnsorted's exact output order —
// row-major cells, ascending ids inside each cell — and CountWithin's
// count against the per-cell slice layout, across rebuilds that grow and
// shrink n, with co-located points and points outside the arena.
func TestWithinUnsortedOrderPinned(t *testing.T) {
	rng := xrand.New(3)
	ix := MustIndex(arena, 125)
	var dst []int
	for _, n := range []int{5, 60, 300, 17, 0, 1, 150} {
		pts := make([]geom.Point, n)
		for i := range pts {
			switch rng.Intn(8) {
			case 0: // co-located with an earlier point
				if i > 0 {
					pts[i] = pts[rng.Intn(i)]
					continue
				}
				fallthrough
			case 1: // outside the arena, clamped into an edge cell
				pts[i] = geom.Pt(rng.Uniform(-300, 1200), rng.Uniform(-300, 1200))
			default:
				pts[i] = geom.Pt(rng.Uniform(0, 900), rng.Uniform(0, 900))
			}
		}
		ref := append([]geom.Point(nil), pts...)
		ix.Build(pts)
		clear(pts) // the index must not retain the caller's slice
		for q := 0; q < 40; q++ {
			p := geom.Pt(rng.Uniform(-200, 1100), rng.Uniform(-200, 1100))
			if q%4 == 0 && n > 0 {
				p = ref[rng.Intn(n)]
			}
			r := []float64{-1, 0, 10, 125, 250, 700, 2000}[rng.Intn(7)]
			dst = ix.WithinUnsorted(p, r, dst[:0])
			want := refWithinUnsorted(ix, ref, p, r)
			if len(dst) != len(want) || (len(want) > 0 && !reflect.DeepEqual(dst, want)) {
				t.Fatalf("n=%d p=%v r=%g: WithinUnsorted = %v, want %v", n, p, r, dst, want)
			}
			if got := ix.CountWithin(p, r); got != len(want) {
				t.Fatalf("n=%d p=%v r=%g: CountWithin = %d, want %d", n, p, r, got, len(want))
			}
		}
	}
}
