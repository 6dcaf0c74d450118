package spatial

import (
	"sort"
	"testing"

	"mstc/internal/geom"
	"mstc/internal/lint"
	"mstc/internal/mobility"
	"mstc/internal/xrand"
)

// TestNoallocAnnotationsConform pins every //manet:noalloc annotation in
// this package with testing.AllocsPerRun: rebuilding the grid and both
// disc scans must allocate nothing in steady state (they run on every
// receiver query and metric sample). Coverage is cross-checked against the
// annotation scan in both directions.
func TestNoallocAnnotationsConform(t *testing.T) {
	rng := xrand.New(17)
	pts := mobility.UniformPoints(arena, 200, rng)
	ix := MustIndex(arena, 125)
	ix.Reserve(len(pts))
	dst := make([]int, 0, len(pts))
	i := 0
	next := func() geom.Point { i++; return pts[i%len(pts)] }

	measured := map[string]func(){
		"Index.Build":          func() { ix.Build(pts[:100+i%100]); i++ },
		"Index.WithinUnsorted": func() { dst = ix.WithinUnsorted(next(), 250, dst[:0]) },
		"Index.CountWithin":    func() { _ = ix.CountWithin(next(), 250) },
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
