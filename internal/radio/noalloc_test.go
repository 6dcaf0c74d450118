package radio

import (
	"sort"
	"testing"

	"mstc/internal/geom"
	"mstc/internal/lint"
	"mstc/internal/xrand"
)

// TestNoallocAnnotationsConform pins every //manet:noalloc annotation in
// this package with testing.AllocsPerRun: the per-window domain assignment
// must allocate nothing when appending into a recycled dst, and the metric
// sampler's degree sweep nothing at all, with and without loss. Coverage
// is cross-checked against the annotation scan in both directions.
func TestNoallocAnnotationsConform(t *testing.T) {
	dg, err := NewDomainGrid(geom.Square(900), 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(17)
	pts := make([]geom.Point, 100)
	for i := range pts {
		pts[i] = geom.Pt(rng.Uniform(-50, 950), rng.Uniform(-50, 950))
	}
	dst := make([]int, 0, len(pts))

	model := newWaypointModel(t, 100, 20, 60, 3)
	var media []*Medium
	for _, loss := range []float64{0, 0.3} {
		med, err := NewMedium(model, Config{LossRate: loss}, xrand.New(1))
		if err != nil {
			t.Fatal(err)
		}
		media = append(media, med)
	}
	ranges := make([]float64, model.N())
	for i := range ranges {
		ranges[i] = rng.Uniform(0, 400)
	}
	counts := make([]int, model.N())
	at := 0.0

	measured := map[string]func(){
		"DomainGrid.AssignInto": func() { dst = dg.AssignInto(pts, dst[:0]) },
		"Medium.ReceiverCountsAt": func() {
			at += 0.1
			for _, med := range media {
				med.ReceiverCountsAt(at, ranges, counts)
			}
		},
	}

	annotated, err := lint.NoallocFuncs(".")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool, len(annotated))
	for _, name := range annotated {
		seen[name] = true
		if measured[name] == nil {
			t.Errorf("%s is annotated //manet:noalloc but has no AllocsPerRun entry", name)
		}
	}
	var names []string
	for name := range measured {
		if !seen[name] {
			t.Errorf("%s is measured here but not annotated //manet:noalloc", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fn := measured[name]
		fn() // warm up before measuring
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %.1f allocs/run in steady state, want 0", name, allocs)
		}
	}
}
